//go:build !aqdebug

package packet

// In release builds the lifecycle hooks compile to nothing.
func debugAcquire(*Packet) {}
func debugRelease(*Packet) {}
