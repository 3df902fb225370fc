package rl

import (
	"fmt"
	"strconv"
	"testing"

	"aidb/internal/ml"
)

// chainEnv is a 1-D corridor: states 0..n-1, actions {0:left, 1:right},
// reward 1 at the right end.
type chainEnv struct{ n, pos int }

func (c *chainEnv) step(a int) (next int, reward float64, done bool) {
	if a == 1 {
		c.pos++
	} else if c.pos > 0 {
		c.pos--
	}
	if c.pos >= c.n-1 {
		return c.pos, 1, true
	}
	return c.pos, 0, false
}

func TestQTableLearnsChain(t *testing.T) {
	rng := ml.NewRNG(1)
	q := NewQTable(rng, 2)
	q.Epsilon = 0.9 // exploration-heavy training; policy is read greedily below
	allowed := []int{0, 1}
	for ep := 0; ep < 300; ep++ {
		env := &chainEnv{n: 6}
		for steps := 0; steps < 150; steps++ {
			s := strconv.Itoa(env.pos)
			a := q.EpsilonGreedy(s, allowed)
			next, r, done := env.step(a)
			q.Update(s, a, r, strconv.Itoa(next), allowed, done)
			if done {
				break
			}
		}
	}
	// Greedy policy from every interior state should be "right".
	for s := 0; s < 5; s++ {
		a, _ := q.Best(strconv.Itoa(s))
		if a != 1 {
			t.Errorf("state %d: greedy action = %d, want 1 (right)", s, a)
		}
	}
	if q.States() == 0 {
		t.Error("expected visited states")
	}
}

func TestQTableBestAllowedRestricts(t *testing.T) {
	rng := ml.NewRNG(2)
	q := NewQTable(rng, 3)
	q.Update("s", 2, 10, "s", nil, true)
	a, _ := q.BestAllowed("s", []int{0, 1})
	if a == 2 {
		t.Error("BestAllowed returned a disallowed action")
	}
}

func TestDQNLearnsChain(t *testing.T) {
	rng := ml.NewRNG(3)
	n := 5
	d := NewDQN(rng, 1, 16, 2)
	d.Epsilon = 0.3
	d.SyncEvery = 50
	enc := func(pos int) []float64 { return []float64{float64(pos) / float64(n)} }
	for ep := 0; ep < 200; ep++ {
		env := &chainEnv{n: n}
		for steps := 0; steps < 30; steps++ {
			s := enc(env.pos)
			a := d.Act(s, nil)
			next, r, done := env.step(a)
			d.Observe(Transition{State: s, Action: a, Reward: r, NextState: enc(next), Done: done})
			if done {
				break
			}
		}
	}
	right := 0
	for pos := 0; pos < n-1; pos++ {
		if d.GreedyAct(enc(pos), nil) == 1 {
			right++
		}
	}
	if right < n-2 {
		t.Errorf("DQN greedy policy chooses right in only %d/%d states", right, n-1)
	}
}

// pickEnv is a one-shot MCTS game: choose one of k numbers; reward equals
// the chosen index normalized, so the best first action is k-1.
type pickEnv struct {
	k      int
	picked int // -1 until a choice is made
}

func (p pickEnv) Actions() []int {
	if p.picked >= 0 {
		return nil
	}
	a := make([]int, p.k)
	for i := range a {
		a[i] = i
	}
	return a
}

func (p pickEnv) Apply(a int) MCTSState { return pickEnv{k: p.k, picked: a} }

func (p pickEnv) Reward() float64 { return float64(p.picked) / float64(p.k-1) }

func (p pickEnv) Key() string { return fmt.Sprintf("%d", p.picked) }

func TestMCTSFindsBestArm(t *testing.T) {
	rng := ml.NewRNG(4)
	m := NewMCTS(rng)
	a, val := m.Search(pickEnv{k: 8, picked: -1}, 2000)
	if a != 7 {
		t.Errorf("MCTS chose %d, want 7", a)
	}
	if val < 0.9 {
		t.Errorf("MCTS value = %v, want ~1", val)
	}
}

// TestMCTSTieIsDeterministic searches with exactly one iteration per
// root action, so every child ends on one visit: the tie must resolve
// the same way on every call, not by map iteration order.
func TestMCTSTieIsDeterministic(t *testing.T) {
	first := -1
	for i := 0; i < 100; i++ {
		a, _ := NewMCTS(ml.NewRNG(4)).Search(pickEnv{k: 8, picked: -1}, 8)
		if first < 0 {
			first = a
		} else if a != first {
			t.Fatalf("call %d chose %d, first call %d", i, a, first)
		}
	}
}

func TestMCTSPanicsOnTerminal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic searching from a terminal state")
		}
	}()
	NewMCTS(ml.NewRNG(5)).Search(pickEnv{k: 3, picked: 1}, 10)
}

func runBandit(t *testing.T, b Bandit, probs []float64, rounds int, rng *ml.RNG) float64 {
	t.Helper()
	bestCount := 0
	bestArm := 0
	for a := 1; a < len(probs); a++ {
		if probs[a] > probs[bestArm] {
			bestArm = a
		}
	}
	for i := 0; i < rounds; i++ {
		a := b.Select()
		r := 0.0
		if rng.Float64() < probs[a] {
			r = 1
		}
		b.Update(a, r)
		if a == bestArm {
			bestCount++
		}
	}
	return float64(bestCount) / float64(rounds)
}

func TestBanditsConvergeToBestArm(t *testing.T) {
	probs := []float64{0.2, 0.5, 0.8}
	cases := []struct {
		name string
		mk   func(rng *ml.RNG) Bandit
	}{
		{"epsilon-greedy", func(rng *ml.RNG) Bandit { return NewEpsilonGreedyBandit(rng, 3, 0.1) }},
		{"ucb1", func(rng *ml.RNG) Bandit { return NewUCB1Bandit(3) }},
		{"thompson", func(rng *ml.RNG) Bandit { return NewThompsonBandit(rng, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := ml.NewRNG(6)
			b := tc.mk(rng)
			if b.Arms() != 3 {
				t.Fatalf("arms = %d, want 3", b.Arms())
			}
			frac := runBandit(t, b, probs, 3000, rng)
			if frac < 0.6 {
				t.Errorf("%s pulled best arm only %.2f of the time", tc.name, frac)
			}
		})
	}
}

func TestUCB1TriesEveryArmFirst(t *testing.T) {
	b := NewUCB1Bandit(4)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		a := b.Select()
		if seen[a] {
			t.Fatalf("arm %d selected twice before all arms tried", a)
		}
		seen[a] = true
		b.Update(a, 0)
	}
}

func TestDQNNextAllowedRestriction(t *testing.T) {
	rng := ml.NewRNG(10)
	d := NewDQN(rng, 1, 8, 3)
	d.BatchSize = 4
	// Feed transitions whose next state only allows action 2, which has
	// huge future value; bootstrap must respect the restriction without
	// panicking.
	for i := 0; i < 50; i++ {
		d.Observe(Transition{
			State: []float64{0}, Action: i % 3, Reward: 0,
			NextState: []float64{1}, NextAllowed: []int{2},
		})
	}
	// Smoke: greedy action over a restricted set stays within it.
	if a := d.GreedyAct([]float64{0}, []int{1}); a != 1 {
		t.Errorf("GreedyAct over {1} = %d", a)
	}
}

func TestMCTSRolloutDepthCap(t *testing.T) {
	rng := ml.NewRNG(11)
	m := NewMCTS(rng)
	m.RolloutDepth = 1 // rollouts stop early; Reward called on non-terminal
	a, _ := m.Search(pickEnv{k: 4, picked: -1}, 200)
	if a < 0 || a > 3 {
		t.Errorf("action %d out of range", a)
	}
}
