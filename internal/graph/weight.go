package graph

// This file is the designated home of edge-weight ordering. Every weight
// comparison outside this package must go through these helpers (enforced
// by mndmst-lint's weight-cmp check): packed weights embed the canonical
// edge id below the 16 random bits (MakeWeight), so the order defined here
// is total and the minimum spanning forest is unique. Routing all
// comparisons through one place keeps any future change to the weight
// encoding (wider weights, float inputs, external tie-break) from silently
// splitting the order between packages.

// WeightLess reports whether packed weight a orders strictly before b in
// the canonical total order. With distinct packed weights (guaranteed per
// graph by the embedded edge id) exactly one of WeightLess(a, b),
// WeightLess(b, a) holds for a != b.
func WeightLess(a, b uint64) bool { return a < b }
