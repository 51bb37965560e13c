// Package payload is the hammering-payload DSL: a typed activation
// program — ACT <row>, NOP <cycles>, LOOP <count> { … } — with a
// canonical byte-stable text encoding, a strict parser, and an
// interpreter (run.go) that drives the programs through the cycle-level
// memory controller so they execute under real bank timing, refresh
// blackouts, and plugin mitigations. The shape follows the litex
// rowhammer-tester payload executor's Encoder/OpCode programs: flat
// opcodes plus counted loops, no jumps, so every program terminates and
// its activation count is computable without running it.
//
// Programs are pure data. The same program bytes always expand to the
// same activation stream, which is what lets the synthesis searcher
// (internal/synth) cache, mutate, and compare candidates by their
// canonical encoding.
package payload

import (
	"fmt"
	"iter"
	"math"
	"strings"
)

// Schema is the header tag of the canonical text encoding. Bumping it
// invalidates every stored payload at the parser, never silently.
const Schema = "payload/1"

// Structural limits. They bound parser memory and interpreter setup so a
// hostile program (the parser is a fuzz target and sgserve accepts
// payload-bearing requests) cannot balloon beyond its text size.
const (
	// MaxRow bounds ACT row arguments.
	MaxRow = 1<<24 - 1
	// MaxNop bounds one NOP's idle-cycle argument.
	MaxNop = 1 << 24
	// MaxLoop bounds one LOOP's iteration count.
	MaxLoop = 1 << 24
	// MaxDepth bounds LOOP nesting.
	MaxDepth = 8
	// MaxInstrs bounds the static instruction count of a program (loop
	// bodies counted once, not per iteration).
	MaxInstrs = 1 << 16
	// MaxName bounds the program-name length.
	MaxName = 128
)

// Instr is one DSL instruction.
type Instr interface {
	// instr marks the closed set: Act, Nop, Loop.
	instr()
}

// Act activates one row (the interpreter issues a read to the row, which
// the controller turns into a genuine precharge+activate on the
// single-bank geometry).
type Act struct {
	Row int
}

// Nop idles the controller for Cycles MC cycles: queued mitigations
// drain, refreshes fire, but the program issues nothing.
type Nop struct {
	Cycles int
}

// Loop repeats Body Count times. Nesting is allowed up to MaxDepth;
// there is no early exit, so expansion is exactly Count × body.
type Loop struct {
	Count int
	Body  []Instr
}

func (Act) instr()  {}
func (Nop) instr()  {}
func (Loop) instr() {}

// Program is a named instruction sequence.
type Program struct {
	Name string
	Body []Instr
}

// validName reports whether s is a legal program name: 1..MaxName bytes
// of printable ASCII with no whitespace, so names survive the one-line
// header encoding byte-for-byte.
func validName(s string) bool {
	if len(s) == 0 || len(s) > MaxName {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// Validate checks the program against the structural limits. Parse
// validates on the way in; constructed programs should Validate before
// Run or Encode.
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("payload: nil program")
	}
	if !validName(p.Name) {
		return fmt.Errorf("payload: invalid program name %q (need 1-%d printable non-space bytes)", p.Name, MaxName)
	}
	if len(p.Body) == 0 {
		return fmt.Errorf("payload: empty program body")
	}
	n := 0
	return validateBody(p.Body, 0, &n)
}

func validateBody(body []Instr, depth int, count *int) error {
	if depth > MaxDepth {
		return fmt.Errorf("payload: loop nesting exceeds depth %d", MaxDepth)
	}
	for _, in := range body {
		*count++
		if *count > MaxInstrs {
			return fmt.Errorf("payload: program exceeds %d instructions", MaxInstrs)
		}
		switch v := in.(type) {
		case Act:
			if v.Row < 0 || v.Row > MaxRow {
				return fmt.Errorf("payload: ACT row %d out of range [0, %d]", v.Row, MaxRow)
			}
		case Nop:
			if v.Cycles < 1 || v.Cycles > MaxNop {
				return fmt.Errorf("payload: NOP cycles %d out of range [1, %d]", v.Cycles, MaxNop)
			}
		case Loop:
			if v.Count < 1 || v.Count > MaxLoop {
				return fmt.Errorf("payload: LOOP count %d out of range [1, %d]", v.Count, MaxLoop)
			}
			if len(v.Body) == 0 {
				return fmt.Errorf("payload: empty LOOP body")
			}
			if err := validateBody(v.Body, depth+1, count); err != nil {
				return err
			}
		default:
			return fmt.Errorf("payload: unknown instruction %T", in)
		}
	}
	return nil
}

// Acts returns the total expanded ACT count, saturating at
// math.MaxInt64/2 so deeply nested loops cannot overflow the caller's
// budget arithmetic.
func (p *Program) Acts() int64 {
	acts, _ := expandCounts(p.Body)
	return acts
}

// NopCycles returns the total expanded idle cycles, saturating like
// Acts.
func (p *Program) NopCycles() int64 {
	_, nops := expandCounts(p.Body)
	return nops
}

const satCap = math.MaxInt64 / 2

func satAdd(a, b int64) int64 {
	if a > satCap-b {
		return satCap
	}
	return a + b
}

func satMul(a int64, n int) int64 {
	if a == 0 || n == 0 {
		return 0
	}
	if a > satCap/int64(n) {
		return satCap
	}
	return a * int64(n)
}

func expandCounts(body []Instr) (acts, nops int64) {
	for _, in := range body {
		switch v := in.(type) {
		case Act:
			acts = satAdd(acts, 1)
		case Nop:
			nops = satAdd(nops, int64(v.Cycles))
		case Loop:
			a, n := expandCounts(v.Body)
			acts = satAdd(acts, satMul(a, v.Count))
			nops = satAdd(nops, satMul(n, v.Count))
		}
	}
	return acts, nops
}

// Step is one expanded instruction delivered by Walk: either an
// activation of Row or an idle span of NopCycles.
type Step struct {
	// IsAct selects between the two fields.
	IsAct     bool
	Row       int
	NopCycles int
}

// Walk expands the program in order, calling fn for each ACT/NOP step
// with loops unrolled. fn returning false stops the walk (the budget
// path). Walk does not validate; run it on Validated programs.
func (p *Program) Walk(fn func(Step) bool) {
	walkBody(p.Body, fn)
}

func walkBody(body []Instr, fn func(Step) bool) bool {
	for _, in := range body {
		switch v := in.(type) {
		case Act:
			if !fn(Step{IsAct: true, Row: v.Row}) {
				return false
			}
		case Nop:
			if !fn(Step{NopCycles: v.Cycles}) {
				return false
			}
		case Loop:
			for i := 0; i < v.Count; i++ {
				if !walkBody(v.Body, fn) {
					return false
				}
			}
		}
	}
	return true
}

// Rows yields the program's ACT rows in order, loops unrolled and NOPs
// skipped: the activation stream the untimed drivers consume. Like Walk
// it does not validate.
func (p *Program) Rows() iter.Seq[int] {
	return func(yield func(int) bool) {
		p.Walk(func(s Step) bool { return !s.IsAct || yield(s.Row) })
	}
}

// Encode renders the canonical text form: the schema header, then one
// instruction per line with two-space indentation per loop depth and a
// trailing newline. Equal programs encode to equal bytes — the searcher
// dedupes candidates and the smoke gate compares runs on exactly these
// bytes.
func (p *Program) Encode() string {
	var b strings.Builder
	b.WriteString(Schema)
	b.WriteByte(' ')
	b.WriteString(p.Name)
	b.WriteByte('\n')
	encodeBody(&b, p.Body, 1)
	return b.String()
}

func encodeBody(b *strings.Builder, body []Instr, depth int) {
	indent := strings.Repeat("  ", depth-1)
	for _, in := range body {
		switch v := in.(type) {
		case Act:
			fmt.Fprintf(b, "%sACT %d\n", indent, v.Row)
		case Nop:
			fmt.Fprintf(b, "%sNOP %d\n", indent, v.Cycles)
		case Loop:
			fmt.Fprintf(b, "%sLOOP %d {\n", indent, v.Count)
			encodeBody(b, v.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", indent)
		}
	}
}

// String implements fmt.Stringer with the canonical encoding.
func (p *Program) String() string { return p.Encode() }
