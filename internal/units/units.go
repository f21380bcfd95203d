// Package units defines the physical quantities used throughout the
// simulator: bit rates, byte sizes and the conversions between them and
// simulated time. Keeping the conversions in one place avoids the classic
// bits-vs-bytes and seconds-vs-nanoseconds mistakes in rate arithmetic.
package units

import "fmt"

// BitRate is a link or allocation rate in bits per second.
type BitRate float64

// Common rate constants.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1e3 * BitPerSecond
	Mbps                 = 1e3 * Kbps
	Gbps                 = 1e3 * Mbps
	Tbps                 = 1e3 * Gbps
)

// BytesPerNano returns the rate expressed in bytes per nanosecond. This is
// the unit the A-Gap recurrence and transmission-time computations use,
// because simulated time is integer nanoseconds.
func (r BitRate) BytesPerNano() float64 { return float64(r) / 8e9 }

// TransmitNanos returns the serialization time, in nanoseconds, of a packet
// of the given size at this rate. The result is rounded up so that a
// transmitter never finishes "early" and two back-to-back packets cannot
// overlap on the wire; a zero or negative rate reports zero to keep callers
// from scheduling events in the past.
func (r BitRate) TransmitNanos(sizeBytes int) int64 {
	if r <= 0 || sizeBytes <= 0 {
		return 0
	}
	bits := float64(sizeBytes) * 8
	ns := bits / float64(r) * 1e9
	n := int64(ns)
	if float64(n) < ns {
		n++
	}
	return n
}

// String renders the rate with a human-friendly unit, e.g. "10Gbps".
func (r BitRate) String() string {
	switch {
	case r >= Tbps:
		return trim(float64(r)/float64(Tbps), "Tbps")
	case r >= Gbps:
		return trim(float64(r)/float64(Gbps), "Gbps")
	case r >= Mbps:
		return trim(float64(r)/float64(Mbps), "Mbps")
	case r >= Kbps:
		return trim(float64(r)/float64(Kbps), "Kbps")
	default:
		return trim(float64(r), "bps")
	}
}

func trim(v float64, unit string) string {
	s := fmt.Sprintf("%.2f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}
