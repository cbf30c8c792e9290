//go:build !amd64 || noasm

package mat

// mulTRow32 falls back to the portable statement of the 4-lane dot contract
// on non-amd64 platforms; archives decode identically either way.
func mulTRow32(arow []float32, b *Matrix32, crow []float32) {
	mulTRowRef(arow, b, crow)
}
