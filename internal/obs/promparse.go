package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the read side of the Prometheus text exposition format: a
// dependency-free parser for what PromWriter emits (and what any conformant
// exporter emits), plus the merge that powers GET /cluster/metrics — scrape
// every gossip-known peer, parse, and re-emit one exposition with an
// instance label on every sample, so one scrape of any daemon sees the
// whole fleet.

// PromSample is one parsed sample line.
type PromSample struct {
	// Name is the full sample name, including a _bucket/_sum/_count suffix.
	Name string
	// Labels are the sample's label pairs in source order.
	Labels []Label
	// Value is the parsed sample value (+Inf/-Inf/NaN included).
	Value float64
	// Raw is the verbatim value text, so re-emission does not reformat.
	Raw string
}

// PromFamily is one parsed metric family: its HELP/TYPE header and samples.
type PromFamily struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | untyped
	Help    string
	Samples []PromSample
}

// ParseExposition parses a text exposition into its families, in source
// order. Samples whose family was never declared (no # TYPE line) are
// collected under an implicit "untyped" family; histogram _bucket/_sum/
// _count samples attach to their base family. The parser is permissive the
// way a federating scraper must be: unknown comment lines and timestamps
// are skipped, only structurally broken lines are errors.
func ParseExposition(r io.Reader) ([]*PromFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	var fams []*PromFamily
	byName := map[string]*PromFamily{}
	family := func(name string) *PromFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &PromFamily{Name: name, Type: "untyped"}
		byName[name] = f
		fams = append(fams, f)
		return f
	}
	// owner resolves the family a sample belongs to, peeling the histogram
	// and summary suffixes before giving up and declaring it untyped.
	owner := func(sample string) *PromFamily {
		if f, ok := byName[sample]; ok {
			return f
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, found := strings.CutSuffix(sample, suf); found {
				if f, ok := byName[base]; ok {
					return f
				}
			}
		}
		return family(sample)
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '#' {
			parts := strings.SplitN(text, " ", 4)
			if len(parts) >= 4 && parts[1] == "HELP" {
				family(parts[2]).Help = unescapeHelp(parts[3])
			} else if len(parts) >= 4 && parts[1] == "TYPE" {
				family(parts[2]).Type = parts[3]
			}
			continue
		}
		s, err := parseSampleLine(text)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", line, err)
		}
		f := owner(s.Name)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	return fams, nil
}

// parseSampleLine parses `name[{labels}] value [timestamp]`.
func parseSampleLine(text string) (PromSample, error) {
	var s PromSample
	nameEnd := strings.IndexAny(text, "{ ")
	if nameEnd <= 0 {
		return s, fmt.Errorf("malformed sample %q", text)
	}
	s.Name = text[:nameEnd]
	rest := text[nameEnd:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest[1:])
		if err != nil {
			return s, fmt.Errorf("sample %s: %w", s.Name, err)
		}
		s.Labels, rest = labels, tail
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("sample %s: missing value", s.Name)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", s.Name, fields[0])
	}
	s.Value, s.Raw = v, fields[0]
	return s, nil
}

// parseLabels parses `name="value",...}` (the caller consumed the opening
// brace) and returns the remainder after the closing brace.
func parseLabels(text string) ([]Label, string, error) {
	var labels []Label
	for {
		text = strings.TrimLeft(text, " \t")
		if len(text) > 0 && text[0] == '}' {
			return labels, text[1:], nil
		}
		eq := strings.IndexByte(text, '=')
		if eq <= 0 || eq+1 >= len(text) || text[eq+1] != '"' {
			return nil, "", fmt.Errorf("malformed labels near %q", text)
		}
		name := strings.TrimSpace(text[:eq])
		if name == "" {
			return nil, "", fmt.Errorf("empty label name near %q", text)
		}
		value, tail, err := parseQuoted(text[eq+2:])
		if err != nil {
			return nil, "", err
		}
		labels = append(labels, Label{Name: name, Value: value})
		text = strings.TrimLeft(tail, " \t")
		if len(text) > 0 && text[0] == ',' {
			text = text[1:]
		}
	}
}

// parseQuoted consumes an exposition-escaped label value up to its closing
// quote (escapes: \\ \" \n) and returns the remainder after the quote.
func parseQuoted(text string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '"':
			return b.String(), text[i+1:], nil
		case '\\':
			i++
			if i >= len(text) {
				return "", "", fmt.Errorf("unterminated escape in label value")
			}
			switch text[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(text[i])
			}
		default:
			b.WriteByte(text[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// unescapeHelp reverses escapeHelp.
func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

// Instance is one scraped daemon's parsed exposition, for MergeExpositions.
type Instance struct {
	// Name becomes the value of the instance label on every re-emitted
	// sample (the daemon's advertise address).
	Name     string
	Families []*PromFamily
}

// MergeExpositions re-emits the instances as one exposition: families appear
// in first-seen order across instances (HELP/TYPE from the first instance
// that declared them), and every sample gains a leading instance label. The
// merged output parses again with ParseExposition — federation is
// composable.
func MergeExpositions(p *PromWriter, instances []Instance) {
	var order []string
	merged := map[string]*PromFamily{}
	samples := map[string][]PromSample{}
	for _, inst := range instances {
		for _, f := range inst.Families {
			if _, ok := merged[f.Name]; !ok {
				merged[f.Name] = f
				order = append(order, f.Name)
			}
			for _, s := range f.Samples {
				labeled := s
				labeled.Labels = append([]Label{{Name: "instance", Value: inst.Name}}, s.Labels...)
				samples[f.Name] = append(samples[f.Name], labeled)
			}
		}
	}
	for _, name := range order {
		f := merged[name]
		p.Family(name, f.Type, f.Help)
		for _, s := range samples[name] {
			p.RawSample(s.Name, s.Labels, s.Raw)
		}
	}
}
