// Package deep hides an allocation one package away from the hot root:
// hotalloc must follow the call edge across the boundary.
package deep

// Grow allocates on every call.
func Grow() *[8]int {
	return new([8]int)
}
