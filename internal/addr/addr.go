// Package addr maps physical addresses to DRAM locations
// (channel/rank/bank/μbank/row/column) under the configurable
// interleaving of Fig. 11 of the paper.
//
// The layout, from the least-significant bit:
//
//	[0, 6)            byte offset within a 64 B cache line
//	[6, iB)           low column bits (lines within the μbank row)
//	[iB, iB+f)        interleave field: channel, then bank, then μbank
//	[iB+f, ...)       remaining column bits, rank, row (MSB)
//
// iB is the "interleaving base bit". iB = 6 interleaves consecutive
// cache lines across channels/banks (cache-line interleaving); iB =
// log2(μbank row bytes) places the whole row in one μbank before moving
// to the next (DRAM-row interleaving). For the unpartitioned 8 KB row
// that maximum is 13, matching the paper's iB range of 6–13.
package addr

import (
	"fmt"
	"math/bits"

	"microbank/internal/config"
)

// Loc is a fully decoded DRAM location.
type Loc struct {
	Channel int
	Rank    int
	Bank    int    // conventional bank within the rank
	Micro   int    // μbank index within the bank, in [0, nW*nB)
	Row     uint32 // row within the μbank
	Col     uint32 // cache-line index within the μbank row
}

// BankID flattens (Channel,Rank,Bank,Micro) into a dense global index.
type BankID int

// Mapper decodes physical addresses for one memory organization.
// Construct with NewMapper; the zero value is unusable.
type Mapper struct {
	org config.Org
	iB  int
	xor bool

	lineBits    int
	lowColBits  int
	chanBits    int
	bankBits    int
	microBits   int
	highColBits int
	rankBits    int
	rowBits     int
}

// NewMapper validates and builds a Mapper. iB must lie in
// [6, log2(μbank row bytes)].
func NewMapper(org config.Org, iB int) (*Mapper, error) {
	return NewMapperHashed(org, iB, false)
}

// NewMapperHashed is NewMapper with optional XOR bank hashing
// (permutation-based interleaving): the bank/μbank field is XORed with
// the low row bits, so strided access patterns that would alias onto
// one bank spread across all of them. The channel field is left
// unhashed so controller load balance is unchanged.
func NewMapperHashed(org config.Org, iB int, xorHash bool) (*Mapper, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	lineBits := log2(org.CacheLineBytes)
	maxIB := log2(org.MicroRowBytes())
	if iB < lineBits || iB > maxIB {
		return nil, fmt.Errorf("addr: iB=%d out of range [%d,%d] for μrow of %d B",
			iB, lineBits, maxIB, org.MicroRowBytes())
	}
	m := &Mapper{
		org:        org,
		iB:         iB,
		xor:        xorHash,
		lineBits:   lineBits,
		lowColBits: iB - lineBits,
		chanBits:   log2(org.Channels),
		bankBits:   log2(org.BanksPerRank),
		microBits:  log2(org.NW * org.NB),
		rankBits:   log2(org.RanksPerChan),
	}
	totalColBits := log2(org.LinesPerRow())
	m.highColBits = totalColBits - m.lowColBits
	// Rows fill the remaining capacity.
	totalBytes := uint64(org.CapacityGB) << 30
	used := m.lineBits + totalColBits + m.chanBits + m.bankBits + m.microBits + m.rankBits
	m.rowBits = int(bits.Len64(totalBytes>>used)) - 1
	if m.rowBits < 1 {
		m.rowBits = 1
	}
	return m, nil
}

// MustMapper is NewMapper that panics on error, for tests and tables.
func MustMapper(org config.Org, iB int) *Mapper {
	m, err := NewMapper(org, iB)
	if err != nil {
		panic(err)
	}
	return m
}

// InterleaveBit returns iB.
func (m *Mapper) InterleaveBit() int { return m.iB }

// Org returns the organization this mapper was built for.
func (m *Mapper) Org() config.Org { return m.org }

// Banks returns the total number of independently schedulable (μ)banks.
func (m *Mapper) Banks() int { return m.org.TotalRowBuffers() }

// BanksPerChannel returns the number of (μ)banks behind one controller.
func (m *Mapper) BanksPerChannel() int {
	return m.org.RanksPerChan * m.org.BanksPerRank * m.org.NW * m.org.NB
}

func take(a uint64, shift, width int) (field uint64, rest uint64) {
	if width == 0 {
		return 0, a
	}
	return (a >> shift) & ((1 << width) - 1), a
}

// hashBankMicro XORs the combined (μbank,bank) index with the low row
// bits. The operation is an involution, so Map and Unmap share it.
func (m *Mapper) hashBankMicro(bank, micro int, row uint32) (int, int) {
	if !m.xor {
		return bank, micro
	}
	width := m.bankBits + m.microBits
	combined := micro<<m.bankBits | bank
	combined ^= int(row) & (1<<width - 1)
	return combined & (1<<m.bankBits - 1), combined >> m.bankBits
}

// Map decodes a physical byte address.
func (m *Mapper) Map(pa uint64) Loc {
	shift := m.lineBits
	lowCol, _ := take(pa, shift, m.lowColBits)
	shift += m.lowColBits
	ch, _ := take(pa, shift, m.chanBits)
	shift += m.chanBits
	bank, _ := take(pa, shift, m.bankBits)
	shift += m.bankBits
	micro, _ := take(pa, shift, m.microBits)
	shift += m.microBits
	highCol, _ := take(pa, shift, m.highColBits)
	shift += m.highColBits
	rank, _ := take(pa, shift, m.rankBits)
	shift += m.rankBits
	row := pa >> shift
	b, mi := m.hashBankMicro(int(bank), int(micro), uint32(row))
	return Loc{
		Channel: int(ch),
		Rank:    int(rank),
		Bank:    b,
		Micro:   mi,
		Row:     uint32(row),
		Col:     uint32(highCol<<m.lowColBits | lowCol),
	}
}

// Unmap re-encodes a location into a physical address (inverse of Map
// for in-range fields). Used by tests and trace synthesis.
func (m *Mapper) Unmap(l Loc) uint64 {
	// Undo the bank hash (it is an involution).
	b, mi := m.hashBankMicro(l.Bank, l.Micro, l.Row)
	l.Bank, l.Micro = b, mi
	lowCol := uint64(l.Col) & ((1 << m.lowColBits) - 1)
	highCol := uint64(l.Col) >> m.lowColBits
	var pa uint64
	shift := m.lineBits
	pa |= lowCol << shift
	shift += m.lowColBits
	pa |= uint64(l.Channel) << shift
	shift += m.chanBits
	pa |= uint64(l.Bank) << shift
	shift += m.bankBits
	pa |= uint64(l.Micro) << shift
	shift += m.microBits
	pa |= highCol << shift
	shift += m.highColBits
	pa |= uint64(l.Rank) << shift
	shift += m.rankBits
	pa |= uint64(l.Row) << shift
	return pa
}

// GlobalBank returns a dense index over all (μ)banks in the system,
// suitable for per-bank state arrays.
func (m *Mapper) GlobalBank(l Loc) BankID {
	per := m.BanksPerChannel()
	within := (l.Rank*m.org.BanksPerRank+l.Bank)*m.org.NW*m.org.NB + l.Micro
	return BankID(l.Channel*per + within)
}

// LocalBank returns a dense index of the (μ)bank within its channel.
func (m *Mapper) LocalBank(l Loc) int {
	return (l.Rank*m.org.BanksPerRank+l.Bank)*m.org.NW*m.org.NB + l.Micro
}

// Layout returns a human-readable description of the bit layout, used
// by the Fig. 11 experiment printer.
func (m *Mapper) Layout() string {
	type field struct {
		name  string
		width int
	}
	fields := []field{
		{"line", m.lineBits},
		{"col.lo", m.lowColBits},
		{"chan", m.chanBits},
		{"bank", m.bankBits},
		{"ubank", m.microBits},
		{"col.hi", m.highColBits},
		{"rank", m.rankBits},
		{"row", m.rowBits},
	}
	out := ""
	bit := 0
	for _, f := range fields {
		if f.width == 0 {
			continue
		}
		if out != "" {
			out += " | "
		}
		out += fmt.Sprintf("%s[%d:%d]", f.name, bit, bit+f.width-1)
		bit += f.width
	}
	return out
}

func log2(v int) int {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("addr: log2 of non-power-of-two %d", v))
	}
	return bits.TrailingZeros(uint(v))
}
