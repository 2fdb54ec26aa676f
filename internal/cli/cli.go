// Package cli holds plumbing shared by the mlvlsi command-line tools so
// that bad input fails the same way everywhere: a one-line actionable
// diagnostic on stderr (unknown families list the registry's valid names),
// exit code 2 for usage errors and 1 for runtime failures, and a uniform
// -timeout flag wired to the library's cooperative cancellation.
package cli

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mlvlsi"
)

// Usagef prints a usage-level diagnostic to stderr and exits 2, the
// conventional flag-error code (matching what package flag itself uses).
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// Failf prints a runtime failure to stderr and exits 1.
func Failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// FamilyNames returns the registered family names in sorted order.
func FamilyNames() []string {
	fams := mlvlsi.Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// CheckFamily validates a -network value against the registry; the error
// for an unknown name lists every valid family so the fix is one copy-paste
// away.
func CheckFamily(name string) error {
	for _, f := range mlvlsi.Families() {
		if f.Name == name {
			return nil
		}
	}
	return fmt.Errorf("unknown network family %q; valid families: %s",
		name, strings.Join(FamilyNames(), ", "))
}

// ParseInts parses a comma-separated integer list ("2,4,8"); flagName is
// used in error messages.
func ParseInts(flagName, csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not an integer", flagName, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty list", flagName)
	}
	return out, nil
}

// ParseBytes parses a byte-count flag value: a plain integer is bytes, and
// a k/m/g (or kib/mib/gib) suffix scales by the binary unit, so "64m" is
// 64 MiB. Negative values pass through unscaled — the verifier's memory
// knobs treat them, like zero, as no ceiling — and flagName is used in
// error messages.
func ParseBytes(flagName, s string) (int, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("%s: empty byte count", flagName)
	}
	shift := 0
	for _, suf := range []struct {
		text  string
		shift int
	}{{"kib", 10}, {"mib", 20}, {"gib", 30}, {"k", 10}, {"m", 20}, {"g", 30}} {
		if strings.HasSuffix(t, suf.text) {
			t, shift = strings.TrimSuffix(t, suf.text), suf.shift
			break
		}
	}
	v, err := strconv.Atoi(strings.TrimSpace(t))
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not a byte count (use an integer with an optional k/m/g suffix)", flagName, s)
	}
	if v < 0 {
		if shift != 0 {
			return 0, fmt.Errorf("%s: negative byte counts take no unit suffix", flagName)
		}
		return v, nil
	}
	if shift > 0 && v > int(^uint(0)>>1)>>shift {
		return 0, fmt.Errorf("%s: %q overflows", flagName, s)
	}
	return v << shift, nil
}

// ParseParams parses a comma-separated name=value list ("k=4,n=3") into a
// family-parameter map; flagName is used in error messages.
func ParseParams(flagName, csv string) (map[string]int, error) {
	p := map[string]int{}
	for _, kv := range strings.Split(csv, ",") {
		if strings.TrimSpace(kv) == "" {
			continue
		}
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%s: entry %q is not name=value", flagName, kv)
		}
		v, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("%s: %s=%q is not an integer", flagName, strings.TrimSpace(name), val)
		}
		p[strings.TrimSpace(name)] = v
	}
	return p, nil
}

// ParseFaultPlan parses the -faults mini-language into a simulator fault
// plan. The spec is semicolon-separated fields:
//
//	nodes=0,5            explicit dead nodes
//	links=0-1,2-3        explicit dead links (endpoints joined by '-')
//	random-nodes=2       seeded-random additional dead nodes
//	random-links=3       seeded-random additional dead links
//	seed=9               the fault seed for the random draws
//
// An empty spec returns nil (no faults).
func ParseFaultPlan(spec string) (*mlvlsi.SimFaultPlan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	plan := &mlvlsi.SimFaultPlan{}
	for _, field := range strings.Split(spec, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("-faults: field %q is not name=value (fields: nodes, links, random-nodes, random-links, seed)", field)
		}
		name, val = strings.TrimSpace(name), strings.TrimSpace(val)
		switch name {
		case "nodes":
			nodes, err := ParseInts("-faults nodes", val)
			if err != nil {
				return nil, err
			}
			plan.Nodes = nodes
		case "links":
			for _, lk := range strings.Split(val, ",") {
				us, vs, ok := strings.Cut(strings.TrimSpace(lk), "-")
				if !ok {
					return nil, fmt.Errorf("-faults links: %q is not u-v", lk)
				}
				u, err1 := strconv.Atoi(us)
				v, err2 := strconv.Atoi(vs)
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("-faults links: %q is not u-v with integer endpoints", lk)
				}
				plan.Links = append(plan.Links, [2]int{u, v})
			}
		case "random-nodes":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-faults random-nodes: %q is not a count", val)
			}
			plan.RandomNodes = n
		case "random-links":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-faults random-links: %q is not a count", val)
			}
			plan.RandomLinks = n
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("-faults seed: %q is not an unsigned integer", val)
			}
			plan.Seed = s
		default:
			return nil, fmt.Errorf("-faults: unknown field %q (fields: nodes, links, random-nodes, random-links, seed)", name)
		}
	}
	return plan, nil
}

// Trace turns a -trace flag value into an observer writing a Chrome-trace
// file. An empty path returns a nil observer (observation disabled at zero
// cost) and a no-op closer. Otherwise the returned done function must run
// after the observed work: it flushes the counter snapshot, terminates the
// JSON array, and closes the file, reporting the first write error.
func Trace(path string) (*mlvlsi.Observer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace: %w", err)
	}
	sink := mlvlsi.NewTraceSink(f)
	obsv := mlvlsi.NewObserver(sink)
	done := func() error {
		obsv.Flush()
		if err := sink.Err(); err != nil {
			f.Close()
			return fmt.Errorf("-trace %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-trace %s: %w", path, err)
		}
		return nil
	}
	return obsv, done, nil
}

// Timeout turns a -timeout flag value into a context: zero means no
// deadline (a nil context, which the library treats as "no cancellation"),
// so unbounded runs pay no polling overhead.
func Timeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return nil, func() {}
	}
	return context.WithTimeout(context.Background(), d)
}
