// Package energy provides a simple parametric cache energy model for the
// design-space-exploration use case that motivates the paper's
// introduction: once exact miss rates for hundreds of configurations are
// available from a single DEW pass per (associativity, block size) pair,
// a designer ranks configurations by estimated energy or performance.
//
// The model is deliberately coarse — a CACTI-style analytical shape, not
// a calibrated technology model — a deliberate substitution: the paper
// cites energy estimation (Wattch, AccuPower) as the consumer of miss
// rates but does not itself define an energy model, so any model
// monotone in the right directions demonstrates the workflow.
package energy

import (
	"fmt"
	"math/bits"
	"sort"

	"dew/internal/cache"
	"dew/internal/trace"
)

// Model holds the analytical energy parameters, all in picojoules.
type Model struct {
	// ReadEnergyBase is the energy of one access to a minimal cache.
	ReadEnergyBase float64
	// EnergyPerLogSize scales access energy with log2 of the total cache
	// size in bytes (larger arrays, longer bitlines).
	EnergyPerLogSize float64
	// EnergyPerWay adds per-way comparator/readout cost, multiplied by
	// the associativity.
	EnergyPerWay float64
	// MissEnergy is the energy of servicing one miss from the next
	// level, excluding the per-byte transfer cost.
	MissEnergy float64
	// MissEnergyPerByte is the additional per-byte block-refill cost,
	// multiplied by the block size.
	MissEnergyPerByte float64
	// LeakagePerByteAccess models static energy proportional to cache
	// capacity, charged per access as a proxy for runtime.
	LeakagePerByteAccess float64
	// WriteEnergyFactor scales the access energy of stores relative to
	// loads and fetches (SRAM writes drive full bitline swings). Zero
	// means 1 — writes cost the same as reads — so kind-free statistics
	// keep their historical totals.
	WriteEnergyFactor float64
}

// DefaultModel returns plausible embedded-SRAM-era constants tuned only
// for sensible orderings: bigger caches cost more per access, misses
// cost much more than hits.
func DefaultModel() Model {
	return Model{
		ReadEnergyBase:       5,
		EnergyPerLogSize:     1.5,
		EnergyPerWay:         1.2,
		MissEnergy:           200,
		MissEnergyPerByte:    4,
		LeakagePerByteAccess: 0.0004,
		WriteEnergyFactor:    1.15,
	}
}

// writeFactor resolves the zero-defaulting of WriteEnergyFactor.
func (m Model) writeFactor() float64 {
	if m.WriteEnergyFactor == 0 {
		return 1
	}
	return m.WriteEnergyFactor
}

// AccessEnergy returns the model's per-access (hit) energy for a
// configuration, in picojoules.
func (m Model) AccessEnergy(cfg cache.Config) float64 {
	logSize := float64(bits.Len(uint(cfg.SizeBytes())) - 1)
	return m.ReadEnergyBase +
		m.EnergyPerLogSize*logSize +
		m.EnergyPerWay*float64(cfg.Assoc) +
		m.LeakagePerByteAccess*float64(cfg.SizeBytes())
}

// MissPenalty returns the model's additional energy per miss.
func (m Model) MissPenalty(cfg cache.Config) float64 {
	return m.MissEnergy + m.MissEnergyPerByte*float64(cfg.BlockSize)
}

// Total returns the estimated total energy (picojoules) of running a
// trace with the given outcome through the configuration.
func (m Model) Total(cfg cache.Config, s cache.Stats) float64 {
	return float64(s.Accesses)*m.AccessEnergy(cfg) + float64(s.Misses)*m.MissPenalty(cfg)
}

// TotalSplit prices a kind-free per-configuration outcome using
// trace-wide kind totals: every configuration of an exploration
// replays the same trace, so the store count is a property of the
// trace (see trace.BlockStream.KindTotals), not of the configuration,
// and the read/write split can be applied to multi-configuration
// engine results that carry no per-kind statistics of their own. The
// per-byte charge keeps the block-per-miss assumption — engines
// without write-policy simulation account no traffic.
func (m Model) TotalSplit(cfg cache.Config, s cache.Stats, writes uint64) float64 {
	w := float64(writes)
	other := float64(s.Accesses) - w
	return other*m.AccessEnergy(cfg) + w*m.AccessEnergy(cfg)*m.writeFactor() +
		float64(s.Misses)*m.MissPenalty(cfg)
}

// Scored pairs a configuration with its outcome and estimated energy.
type Scored struct {
	Config cache.Config
	Stats  cache.Stats
	Energy float64
}

func (s Scored) String() string {
	return fmt.Sprintf("%v missRate=%.4f energy=%.3g pJ", s.Config, s.Stats.MissRate(), s.Energy)
}

// Rank scores every (configuration, stats) pair with the model and
// returns them cheapest-first. Ties break toward the smaller cache, then
// lexicographically by (sets, assoc, block size) so the order is total
// and deterministic.
func (m Model) Rank(results map[cache.Config]cache.Stats) []Scored {
	return m.rank(results, m.Total)
}

// RankSplit is Rank with the trace's store share priced at the write
// factor (TotalSplit); kinds are the trace-wide per-kind access totals,
// indexed by trace.Kind.
func (m Model) RankSplit(results map[cache.Config]cache.Stats, kinds [3]uint64) []Scored {
	writes := kinds[trace.DataWrite]
	return m.rank(results, func(cfg cache.Config, s cache.Stats) float64 {
		return m.TotalSplit(cfg, s, writes)
	})
}

func (m Model) rank(results map[cache.Config]cache.Stats, score func(cache.Config, cache.Stats) float64) []Scored {
	out := make([]Scored, 0, len(results))
	for cfg, st := range results {
		out = append(out, Scored{Config: cfg, Stats: st, Energy: score(cfg, st)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Energy != out[j].Energy {
			return out[i].Energy < out[j].Energy
		}
		if a, b := out[i].Config.SizeBytes(), out[j].Config.SizeBytes(); a != b {
			return a < b
		}
		ci, cj := out[i].Config, out[j].Config
		if ci.Sets != cj.Sets {
			return ci.Sets < cj.Sets
		}
		if ci.Assoc != cj.Assoc {
			return ci.Assoc < cj.Assoc
		}
		return ci.BlockSize < cj.BlockSize
	})
	return out
}
