package kernel

import (
	"fmt"
	"math/bits"
	"strings"

	"ghost/internal/hw"
)

// Mask is a CPU affinity bitmask supporting machines up to 256 CPUs.
// The zero value is the empty mask.
type Mask struct {
	bits [4]uint64
}

// MaskAll returns a mask with CPUs 0..n-1 set.
func MaskAll(n int) Mask {
	var m Mask
	for i := 0; i < n; i++ {
		m.Set(hw.CPUID(i))
	}
	return m
}

// MaskOf returns a mask with exactly the given CPUs set.
func MaskOf(ids ...hw.CPUID) Mask {
	var m Mask
	for _, id := range ids {
		m.Set(id)
	}
	return m
}

// Set adds cpu to the mask.
func (m *Mask) Set(c hw.CPUID) {
	if c < 0 || int(c) >= 256 {
		panic(fmt.Sprintf("kernel: mask CPU %d out of range", c))
	}
	m.bits[c/64] |= 1 << (uint(c) % 64)
}

// SetTo sets cpu's bit when on and clears it otherwise. Unlike Set it
// builds no panic message (an out-of-range cpu is a plain index panic),
// so it stays inlinable and allocation-free on per-event paths.
func (m *Mask) SetTo(c hw.CPUID, on bool) {
	w, bit := &m.bits[uint(c)/64], uint64(1)<<(uint(c)%64)
	if on {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// Clear removes cpu from the mask.
func (m *Mask) Clear(c hw.CPUID) {
	if c < 0 || int(c) >= 256 {
		return
	}
	m.bits[c/64] &^= 1 << (uint(c) % 64)
}

// Has reports whether cpu is in the mask.
func (m Mask) Has(c hw.CPUID) bool {
	if c < 0 || int(c) >= 256 {
		return false
	}
	return m.bits[c/64]&(1<<(uint(c)%64)) != 0
}

// Empty reports whether no CPU is set.
func (m Mask) Empty() bool {
	return m.bits[0]|m.bits[1]|m.bits[2]|m.bits[3] == 0
}

// First returns the lowest CPU in the mask, hw.NoCPU when it is empty.
func (m Mask) First() hw.CPUID {
	for w, word := range m.bits {
		if word != 0 {
			return hw.CPUID(w*64 + bits.TrailingZeros64(word))
		}
	}
	return hw.NoCPU
}

// Count returns the number of CPUs in the mask.
func (m Mask) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// And returns the intersection of two masks. It and AndNot spell out the
// four words so the result is built in registers, not stored word by
// word and copied.
func (m Mask) And(o Mask) Mask {
	return Mask{[4]uint64{m.bits[0] & o.bits[0], m.bits[1] & o.bits[1], m.bits[2] & o.bits[2], m.bits[3] & o.bits[3]}}
}

// AndNot returns the CPUs of m that are not in o.
func (m Mask) AndNot(o Mask) Mask {
	return Mask{[4]uint64{m.bits[0] &^ o.bits[0], m.bits[1] &^ o.bits[1], m.bits[2] &^ o.bits[2], m.bits[3] &^ o.bits[3]}}
}

// ForEach calls fn for each CPU in the mask in ascending order; fn
// returning false stops the iteration. This runs once per scheduling
// decision over up-to-256-CPU machines, so the bit scan must be
// constant-time per set bit (TrailingZeros64, not a shift loop).
func (m Mask) ForEach(fn func(hw.CPUID) bool) {
	for w := 0; w < 4; w++ {
		rest := m.bits[w]
		for rest != 0 {
			idx := bits.TrailingZeros64(rest)
			if !fn(hw.CPUID(w*64 + idx)) {
				return
			}
			rest &= rest - 1
		}
	}
}

// CPUs returns the set CPUs in ascending order.
func (m Mask) CPUs() []hw.CPUID { return m.AppendCPUs(make([]hw.CPUID, 0, m.Count())) }

// AppendCPUs appends the set CPUs to dst in ascending order and returns
// the extended slice.
func (m Mask) AppendCPUs(dst []hw.CPUID) []hw.CPUID {
	for w, word := range m.bits {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, hw.CPUID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// String renders the mask as a compact CPU list.
func (m Mask) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	m.ForEach(func(c hw.CPUID) bool {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
		first = false
		return true
	})
	b.WriteByte('}')
	return b.String()
}
