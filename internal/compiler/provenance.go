package compiler

// Provenance records where a run's compile pass came from.
type Provenance int

// Provenance values.
const (
	// ProvNone: no compile pass ran (scheduling disabled).
	ProvNone Provenance = iota
	// ProvCompiled: the pass ran fresh (cache miss or cache absent).
	ProvCompiled
	// ProvMemory: served from the in-process memo.
	ProvMemory
	// ProvUncacheable: compiled fresh because a non-serializable input
	// (custom region function, random tie breaker) defeats keying.
	ProvUncacheable
)

// String names the provenance; ProvNone is the empty string so
// scheduling-off runs render nothing.
func (p Provenance) String() string {
	switch p {
	case ProvCompiled:
		return "compiled"
	case ProvMemory:
		return "memo"
	case ProvUncacheable:
		return "uncacheable"
	default:
		return ""
	}
}
