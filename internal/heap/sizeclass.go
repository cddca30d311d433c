package heap

// Size-class map used by DDmalloc, quoted from the paper (§3.2):
//
//	"Our current implementation 1) rounds up the requested size to a
//	multiple of 8 bytes if the size is smaller than 128 bytes, 2) rounds
//	up to a multiple of 32 bytes if the size is smaller than 512 bytes,
//	and 3) rounds up to the nearest power of two for larger sizes."
//
// With a 32 KiB segment, objects above half a segment (16 KiB) are "large"
// and bypass the class map.

const (
	// SmallCutoff and MidCutoff delimit the three rounding regimes.
	SmallCutoff = 128
	MidCutoff   = 512

	numSmall = SmallCutoff / 8                // classes 8,16,...,128
	numMid   = (MidCutoff - SmallCutoff) / 32 // classes 160,192,...,512

	// NumClasses is the total number of size classes for a 32 KiB
	// segment (power-of-two classes run 1 KiB .. 16 KiB).
	NumClasses = numSmall + numMid + 5
)

// SizeToClass maps a request size to its size-class index. It panics on
// size 0 or on sizes above MaxClassSize (large objects are the caller's
// problem, as in DDmalloc).
func SizeToClass(size uint64) int {
	switch {
	case size == 0:
		panic("heap: SizeToClass(0)")
	case size <= SmallCutoff:
		return int((size+7)/8) - 1
	case size <= MidCutoff:
		return numSmall + int((size-SmallCutoff+31)/32) - 1
	case size <= MaxClassSize:
		// Power-of-two classes: 1024, 2048, 4096, 8192, 16384.
		c := numSmall + numMid
		for s := uint64(1024); s < size; s <<= 1 {
			c++
		}
		return c
	default:
		panic("heap: SizeToClass beyond MaxClassSize")
	}
}

// MaxClassSize is the largest size served from a size class (half of
// DDmalloc's 32 KiB segment).
const MaxClassSize = 16 * 1024

// ClassSize returns the rounded object size of class c.
func ClassSize(c int) uint64 {
	switch {
	case c < 0 || c >= NumClasses:
		panic("heap: ClassSize out of range")
	case c < numSmall:
		return uint64(c+1) * 8
	case c < numSmall+numMid:
		return SmallCutoff + uint64(c-numSmall+1)*32
	default:
		return 1024 << uint(c-numSmall-numMid)
	}
}

// RoundedSize returns the allocated size for a request (the class size, or
// the page-rounded size for large objects).
func RoundedSize(size uint64) uint64 {
	if size > MaxClassSize {
		return (size + 4095) &^ 4095
	}
	return ClassSize(SizeToClass(size))
}
