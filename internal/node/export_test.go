package node

// SerialTuning returns t with every coordinator fan-out at 1: one level
// search, one can_search probe and one fetch in flight at a time, so RPC
// counts repeat exactly.
func SerialTuning(t Tuning) Tuning {
	t.serial = true
	return t
}
