// Library builders: the published hammering patterns of Section II-E
// (single/double-sided, TRRespass many-sided, Half-Double) as compact
// LOOP programs. Each builder writes one period of its access stream as
// a loop body and rolls it to exactly `acts` activations, so callers
// size an attack by its activation count.
package payload

import "fmt"

// SingleSided is the classic one-aggressor hammer: acts activations of
// the aggressor row, whose neighbours are the victims.
func SingleSided(aggressor, acts int) *Program {
	return roll(fmt.Sprintf("single-sided(%d)", aggressor), []int{aggressor}, acts)
}

// DoubleSided alternates the two rows sandwiching the victim, doubling
// the disturbance rate on it.
func DoubleSided(victim, acts int) *Program {
	return roll(fmt.Sprintf("double-sided(%d)", victim), []int{victim - 1, victim + 1}, acts)
}

// ManySided is the TRRespass pattern: the true aggressor pair around the
// victim plus a burst of decoy rows (dummyBase, dummyBase+8, …) between
// consecutive aggressor activations. Every decoy appears between the two
// aggressors, which keeps the decoys at the top of a small TRR sampler
// and evicts the real aggressors before the next REF can refresh their
// neighbours.
func ManySided(victim, dummies, dummyBase, acts int) *Program {
	var period []int
	for _, aggressor := range []int{victim - 1, victim + 1} {
		period = append(period, aggressor)
		for i := 0; i < dummies; i++ {
			period = append(period, dummyBase+8*i)
		}
	}
	return roll(fmt.Sprintf("many-sided(%d,+%d@%d)", victim, dummies, dummyBase), period, acts)
}

// HalfDouble is Google's distance-two pattern: hammer the far rows (V±2)
// heavily and the near rows (V±1) lightly. The mitigation sees the far
// rows as aggressors and keeps refreshing the near rows, and each of
// those refreshes is an activation at distance 1 from V. One near
// activation replaces the far one in the middle of every nearEvery
// steps, alternating V-1 and V+1; nearEvery 0 drops the direct near hits
// and relies purely on mitigation refreshes. The stream repeats every
// 2×nearEvery steps (2 when nearEvery is 0).
func HalfDouble(victim, nearEvery, acts int) *Program {
	n := 2
	if nearEvery > 0 {
		n = 2 * nearEvery
	}
	period := make([]int, n)
	for i := range period {
		switch {
		case nearEvery > 0 && i%nearEvery == nearEvery/2 && (i/nearEvery)%2 == 0:
			period[i] = victim - 1
		case nearEvery > 0 && i%nearEvery == nearEvery/2:
			period[i] = victim + 1
		case i%2 == 0:
			period[i] = victim - 2
		default:
			period[i] = victim + 2
		}
	}
	return roll(fmt.Sprintf("half-double(%d,near%d)", victim, nearEvery), period, acts)
}

// roll emits LOOP ⌊acts/len(period)⌋ { period } followed by the
// remainder prefix: exactly `acts` activations whose i-th row is
// period[i mod len(period)].
func roll(name string, period []int, acts int) *Program {
	if len(period) < 1 || acts < 1 || acts > MaxLoop {
		panic(fmt.Sprintf("payload: bad roll(%q, period=%d, acts=%d)", name, len(period), acts))
	}
	prog := &Program{Name: name}
	full, rem := acts/len(period), acts%len(period)
	if full > 0 {
		body := make([]Instr, len(period))
		for i, r := range period {
			body[i] = Act{Row: r}
		}
		if full == 1 {
			prog.Body = append(prog.Body, body...)
		} else {
			prog.Body = append(prog.Body, Loop{Count: full, Body: body})
		}
	}
	for _, r := range period[:rem] {
		prog.Body = append(prog.Body, Act{Row: r})
	}
	return prog
}
