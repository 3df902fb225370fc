package security

import (
	"strings"

	"aidb/internal/ml"
)

// SensitiveKind labels column content.
type SensitiveKind int

// Column content kinds; Plain is non-sensitive.
const (
	Plain SensitiveKind = iota
	Email
	Phone
	SSN
	CreditCard
)

func (k SensitiveKind) String() string {
	switch k {
	case Email:
		return "email"
	case Phone:
		return "phone"
	case SSN:
		return "ssn"
	case CreditCard:
		return "credit-card"
	default:
		return "plain"
	}
}

// ColumnSample is a column's sampled values with ground truth.
type ColumnSample struct {
	Values []string
	Truth  SensitiveKind
}

// GenerateColumns synthesizes columns of each kind, including format
// variants (dashes, spaces, country codes) that break rigid regexes.
func GenerateColumns(rng *ml.RNG, n int) []ColumnSample {
	words := []string{"red", "blue", "large", "pending", "shipped", "widget", "gizmo", "north", "south"}
	digits := func(k int) string {
		var b strings.Builder
		for i := 0; i < k; i++ {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		return b.String()
	}
	out := make([]ColumnSample, n)
	for i := range out {
		kind := SensitiveKind(rng.Intn(5))
		vals := make([]string, 20)
		for v := range vals {
			switch kind {
			case Email:
				name := words[rng.Intn(len(words))] + digits(2)
				domains := []string{"example.com", "mail.org", "corp.co.uk", "test.io"}
				vals[v] = name + "@" + domains[rng.Intn(len(domains))]
			case Phone:
				// Format variants: 555-123-4567, (555) 123 4567, +1 5551234567.
				switch rng.Intn(3) {
				case 0:
					vals[v] = digits(3) + "-" + digits(3) + "-" + digits(4)
				case 1:
					vals[v] = "(" + digits(3) + ") " + digits(3) + " " + digits(4)
				default:
					vals[v] = "+1 " + digits(10)
				}
			case SSN:
				if rng.Intn(2) == 0 {
					vals[v] = digits(3) + "-" + digits(2) + "-" + digits(4)
				} else {
					vals[v] = digits(9) // undashed variant defeats the regex
				}
			case CreditCard:
				if rng.Intn(2) == 0 {
					vals[v] = digits(4) + " " + digits(4) + " " + digits(4) + " " + digits(4)
				} else {
					vals[v] = digits(16)
				}
			default:
				vals[v] = words[rng.Intn(len(words))]
			}
		}
		out[i] = ColumnSample{Values: vals, Truth: kind}
	}
	return out
}

// ColumnShapeFeatures summarizes a column's value shapes: mean length,
// digit fraction, punctuation fractions, '@' presence, distinctness.
func ColumnShapeFeatures(values []string) []float64 {
	var lenSum, digitFrac, atFrac, dashFrac, spaceFrac, alphaFrac float64
	for _, v := range values {
		lenSum += float64(len(v))
		if len(v) == 0 {
			continue
		}
		d, a, al := 0, 0, 0
		dash, sp := 0, 0
		for _, c := range v {
			switch {
			case c >= '0' && c <= '9':
				d++
			case c == '@':
				a++
			case c == '-':
				dash++
			case c == ' ':
				sp++
			case (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
				al++
			}
		}
		n := float64(len(v))
		digitFrac += float64(d) / n
		alphaFrac += float64(al) / n
		dashFrac += float64(dash) / n
		spaceFrac += float64(sp) / n
		if a > 0 {
			atFrac++
		}
	}
	k := float64(len(values))
	if k == 0 {
		k = 1
	}
	return []float64{lenSum / k / 20, digitFrac / k, alphaFrac / k, dashFrac / k, spaceFrac / k, atFrac / k}
}

// SensitiveDiscoverer classifies columns.
type SensitiveDiscoverer interface {
	Classify(values []string) SensitiveKind
	Name() string
}

// RegexRules is the baseline: rigid format patterns. It recognizes only
// the canonical formats.
type RegexRules struct{}

// Name implements SensitiveDiscoverer.
func (RegexRules) Name() string { return "regex-rules" }

// Classify implements SensitiveDiscoverer via majority vote of per-value
// rigid format checks. Ties go to the lowest SensitiveKind, so a split
// vote classifies the same way on every call.
func (RegexRules) Classify(values []string) SensitiveKind {
	var votes [CreditCard + 1]int
	for _, v := range values {
		votes[classifyOneRigid(v)]++
	}
	best := Plain
	for k, n := range votes {
		if n > votes[best] {
			best = SensitiveKind(k)
		}
	}
	return best
}

func classifyOneRigid(v string) SensitiveKind {
	switch {
	case strings.Count(v, "@") == 1 && strings.Contains(v, ".com"):
		return Email // misses .org/.io/.co.uk
	case len(v) == 12 && v[3] == '-' && v[7] == '-':
		return Phone // misses parenthesized and +1 formats
	case len(v) == 11 && v[3] == '-' && v[6] == '-':
		return SSN // misses undashed SSNs
	case len(v) == 19 && strings.Count(v, " ") == 3:
		return CreditCard // misses unspaced cards
	default:
		return Plain
	}
}

// LearnedDiscoverer is the classifier-based discoverer: a decision tree
// over column-shape features, trained on labelled columns.
type LearnedDiscoverer struct {
	tree ml.DecisionTree
}

// Name implements SensitiveDiscoverer.
func (*LearnedDiscoverer) Name() string { return "learned-classifier" }

// Train fits the tree.
func (d *LearnedDiscoverer) Train(cols []ColumnSample) error {
	x := ml.NewMatrix(len(cols), 6)
	y := make([]int, len(cols))
	for i, c := range cols {
		copy(x.Row(i), ColumnShapeFeatures(c.Values))
		y[i] = int(c.Truth)
	}
	d.tree = ml.DecisionTree{MaxDepth: 8}
	return d.tree.Fit(x, y)
}

// Classify implements SensitiveDiscoverer.
func (d *LearnedDiscoverer) Classify(values []string) SensitiveKind {
	return SensitiveKind(d.tree.Predict(ColumnShapeFeatures(values)))
}

// SensitiveRecall measures the fraction of sensitive columns detected as
// sensitive (any non-Plain label counts as detection).
func SensitiveRecall(d SensitiveDiscoverer, cols []ColumnSample) float64 {
	detected, total := 0, 0
	for _, c := range cols {
		if c.Truth == Plain {
			continue
		}
		total++
		if d.Classify(c.Values) != Plain {
			detected++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(detected) / float64(total)
}
