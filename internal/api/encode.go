package api

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"pwf/internal/sweep"
)

// The canonical encoder (see the package comment) is one append
// function per wire type; buffers recycles its scratch buffers.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// unsupported carries the error for a value encoding/json refuses (a
// NaN or ±Inf float) from the append function that meets it up to
// marshal, as encoding/json's own encoder does.
type unsupported struct{ err error }

// marshal encodes v on a pooled scratch buffer and returns a copy, plus
// tail, in one exact-length allocation as json.Marshal does.
func marshal[T Grid | Result | Error](v *T, tail string) (out []byte, err error) {
	buf := buffers.Get().(*[]byte)
	defer func() {
		if r := recover(); r != nil {
			u, ok := r.(unsupported)
			if !ok {
				panic(r)
			}
			out, err = nil, u.err
		}
		buffers.Put(buf)
	}()
	b := (*buf)[:0]
	switch v := any(v).(type) {
	case *Grid:
		b = appendGrid(b, v)
	case *Result:
		b = appendResult(b, v)
	case *Error:
		b = appendError(b, v)
	}
	*buf = append(b, tail...)
	return append([]byte(nil), *buf...), nil
}

// key opens the next object member: a comma unless it is the first,
// then the quoted name and a colon. Names here need no escaping.
func key(b []byte, name string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return append(append(append(b, '"'), name...), '"', ':')
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// optStr and optInt append an omitempty member: nothing for the zero
// value.
func optStr(b []byte, name, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(key(b, name), s)
}

func optInt(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(key(b, name), v, 10)
}

// appendFloat appends f as encoding/json does: the exponent form only
// below 1e-6 and from 1e21, and unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(unsupported{fmt.Errorf("api: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))})
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as an HTML-safe JSON string, as
// encoding/json does: control bytes, quote, backslash, <, > and &
// escaped, U+2028 and U+2029 escaped, and each byte of invalid UTF-8
// written as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i, size := 0, 0; i < len(s); i += size {
		c := rune(s[i])
		if size = 1; c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		invalid := c == utf8.RuneError && size == 1
		if c < utf8.RuneSelf && c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' ||
			c >= utf8.RuneSelf && c != '\u2028' && c != '\u2029' && !invalid {
			continue
		}
		b = append(b, s[start:i]...)
		if j := strings.IndexRune("\"\\\b\f\n\r\t", c); j >= 0 {
			b = append(b, '\\', "\"\\bfnrt"[j])
		} else if invalid {
			b = append(b, `\ufffd`...)
		} else {
			b = append(b, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		start = i + size
	}
	return append(append(b, s[start:]...), '"')
}

// appendList appends s as a JSON array, or null when s is nil.
func appendList[T int | uint64 | float64 | Job | sweep.PhaseSpec](b []byte, s []T) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		switch v := any(&s[i]).(type) {
		case *int:
			b = appendInt(b, *v)
		case *uint64:
			b = strconv.AppendUint(b, *v, 10)
		case *float64:
			b = appendFloat(b, *v)
		case *Job:
			b = appendJob(b, v)
		case *sweep.PhaseSpec:
			b = appendPhase(b, v)
		}
	}
	return append(b, ']')
}

// optList appends an omitempty array member: nothing when s is empty.
func optList[T int | uint64 | float64 | sweep.PhaseSpec](b []byte, name string, s []T) []byte {
	if len(s) == 0 {
		return b
	}
	return appendList(key(b, name), s)
}

func appendGrid(b []byte, g *Grid) []byte {
	b = appendInt(key(append(b, '{'), "v"), g.V)
	b = strconv.AppendUint(key(b, "seed"), g.Seed, 10)
	b = appendList(key(b, "jobs"), g.Jobs)
	return append(b, '}')
}

func appendJob(b []byte, j *Job) []byte {
	b = appendWorkload(key(append(b, '{'), "workload"), &j.Workload)
	b = appendInt(key(b, "n"), j.N)
	b = appendSched(key(b, "sched"), &j.Sched)
	b = strconv.AppendUint(key(b, "steps"), j.Steps, 10)
	b = appendFloat(key(b, "warmup_fraction"), j.WarmupFraction)
	b = optInt(b, "crash", int64(j.Crash))
	if j.Exact {
		b = append(key(b, "exact"), "true"...)
	}
	b = optStr(b, "label", j.Label)
	return append(b, '}')
}

func appendWorkload(b []byte, w *Workload) []byte {
	b = appendString(key(append(b, '{'), "kind"), string(w.Kind))
	b = optInt(b, "q", int64(w.Q))
	b = optInt(b, "s", int64(w.S))
	b = optInt(b, "wait_factor", w.WaitFactor)
	b = optInt(b, "pool_size", int64(w.PoolSize))
	return append(b, '}')
}

func appendSched(b []byte, s *SchedulerSpec) []byte {
	b = optStr(append(b, '{'), "kind", string(s.Kind))
	if s.Rho != 0 {
		b = appendFloat(key(b, "rho"), s.Rho)
	}
	b = optList(b, "tickets", s.Tickets)
	b = optList(b, "weights", s.Weights)
	b = optList(b, "phases", s.Phases)
	b = optInt(b, "victim", int64(s.Victim))
	return append(b, '}')
}

func appendPhase(b []byte, p *sweep.PhaseSpec) []byte {
	b = appendList(key(append(b, '{'), "weights"), p.Weights)
	b = strconv.AppendUint(key(b, "steps"), p.Steps, 10)
	return append(b, '}')
}

func appendResult(b []byte, r *Result) []byte {
	b = appendInt(key(append(b, '{'), "v"), r.V)
	b = appendInt(key(b, "index"), r.Index)
	b = optStr(b, "label", r.Label)
	b = appendJob(key(b, "job"), &r.Job)
	b = strconv.AppendUint(key(b, "seed"), r.Seed, 10)
	b = appendLatencies(key(b, "latencies"), &r.Latencies)
	b = optList(b, "proc_completions", r.ProcCompletions)
	b = optList(b, "starved", r.Starved)
	b = appendFloat(key(b, "theta"), r.Theta)
	if r.Exact != 0 {
		b = appendFloat(key(b, "exact"), r.Exact)
	}
	if r.ExactOK {
		b = append(key(b, "exact_ok"), "true"...)
	}
	return append(b, '}')
}

func appendLatencies(b []byte, l *Latencies) []byte {
	b = appendFloat(key(append(b, '{'), "system"), l.System)
	b = appendFloat(key(b, "individual"), l.Individual)
	b = appendFloat(key(b, "completion_rate"), l.CompletionRate)
	b = appendFloat(key(b, "fairness"), l.Fairness)
	b = strconv.AppendUint(key(b, "completions"), l.Completions, 10)
	return append(b, '}')
}

func appendError(b []byte, e *Error) []byte {
	b = appendInt(key(append(b, '{'), "v"), e.V)
	b = appendString(key(b, "code"), e.Code)
	b = appendString(key(b, "message"), e.Message)
	b = optInt(b, "retry_after_sec", int64(e.RetryAfterSec))
	return append(b, '}')
}
