package geometry

// ExpectedCountReference is Eq 8 over the frozen beta form, for the
// benchmarks of the external test package.
var ExpectedCountReference = expectedCountReference

// SolveEpsBetaReference is SolveEpsForCount's Illinois iteration over the
// frozen beta form.
func SolveEpsBetaReference(d int, k float64, spheres []SphereAt) float64 {
	return solveEps(spheres, k, func(eps float64) float64 { return expectedCountReference(d, eps, spheres) })
}
