package geometry

import "math/rand"

// RandomSpheres draws n cluster spheres of the shape levelEps feeds the Eq 8
// solver: centroid distances uniform in [0,5), radii in [0,1), and 1–50
// items each. Shared by the solver benchmarks here and in bench/.
func RandomSpheres(n int, rng *rand.Rand) []SphereAt {
	spheres := make([]SphereAt, n)
	for i := range spheres {
		spheres[i] = SphereAt{
			Dist:   rng.Float64() * 5,
			Radius: rng.Float64(),
			Items:  1 + rng.Intn(50),
		}
	}
	return spheres
}
