package security

import (
	"testing"

	"aidb/internal/ml"
)

func TestSignatureCatchesClassics(t *testing.T) {
	sig := SignatureBlacklist{}
	for _, q := range []string{
		"SELECT * FROM users WHERE id = 1 OR 1=1",
		"SELECT * FROM users; DROP TABLE users",
		"x UNION SELECT password FROM admins",
	} {
		if !sig.Detect(q) {
			t.Errorf("signature missed classic attack %q", q)
		}
	}
	if sig.Detect("SELECT name FROM users WHERE id = 42") {
		t.Error("signature false positive on benign query")
	}
}

func TestSignatureBlindToObfuscation(t *testing.T) {
	sig := SignatureBlacklist{}
	missed := 0
	obf := []string{
		"SELECT name FROM users WHERE id = 1 OR 2>1",
		"SELECT * FROM users WHERE id = 1 UN/**/ION SELECT pw FROM admins",
		"SELECT * FROM users WHERE id = 1 oR TRUE",
	}
	for _, q := range obf {
		if !sig.Detect(q) {
			missed++
		}
	}
	if missed == 0 {
		t.Error("obfuscated attacks should evade the signature baseline (premise of E13)")
	}
}

func TestLearnedDetectorsCatchObfuscation(t *testing.T) {
	rng := ml.NewRNG(1)
	train := GenerateInjectionCorpus(rng, 600)
	test := GenerateInjectionCorpus(rng, 300)
	var tree TreeDetector
	if err := tree.Train(train); err != nil {
		t.Fatal(err)
	}
	var nb BayesDetector
	if err := nb.Train(train); err != nil {
		t.Fatal(err)
	}
	sigRep := EvaluateDetector(SignatureBlacklist{}, test)
	treeRep := EvaluateDetector(&tree, test)
	nbRep := EvaluateDetector(&nb, test)
	t.Logf("obfuscated recall: signature %.2f, tree %.2f, bayes %.2f",
		sigRep.ObfuscatedRecall, treeRep.ObfuscatedRecall, nbRep.ObfuscatedRecall)
	if treeRep.ObfuscatedRecall <= sigRep.ObfuscatedRecall {
		t.Errorf("tree obfuscated recall %.2f should beat signatures %.2f", treeRep.ObfuscatedRecall, sigRep.ObfuscatedRecall)
	}
	if treeRep.ObfuscatedRecall < 0.9 {
		t.Errorf("tree obfuscated recall %.2f too low", treeRep.ObfuscatedRecall)
	}
	if treeRep.FalsePositiveRate > 0.05 {
		t.Errorf("tree FPR %.3f too high", treeRep.FalsePositiveRate)
	}
	if nbRep.Recall <= sigRep.Recall {
		t.Errorf("bayes recall %.2f should beat signatures %.2f", nbRep.Recall, sigRep.Recall)
	}
}

func TestInjectionFeaturesShape(t *testing.T) {
	f1 := InjectionFeatures("")
	f2 := InjectionFeatures("SELECT * FROM t WHERE a = 1 OR 1=1")
	if len(f1) != len(f2) {
		t.Fatal("feature length must be constant")
	}
	if f2[5] == 0 {
		t.Error("tautology feature should fire on OR 1=1")
	}
}

func TestRegexRulesCanonicalFormats(t *testing.T) {
	r := RegexRules{}
	emails := []string{"alice" + "@" + "shop.com", "bob" + "@" + "mail.com"}
	if r.Classify(emails) != Email {
		t.Error("regex should catch canonical .com emails")
	}
	if r.Classify([]string{"555-123-4567", "444-987-6543"}) != Phone {
		t.Error("regex should catch dashed phones")
	}
	if r.Classify([]string{"red", "blue"}) != Plain {
		t.Error("regex false positive on plain values")
	}
}

// TestRegexRulesTieIsDeterministic pins the majority vote's tie-break:
// a column whose values split evenly between kinds must classify the
// same way on every call, not by map iteration order.
func TestRegexRulesTieIsDeterministic(t *testing.T) {
	r := RegexRules{}
	tied := []string{"555-123-4567", "123-45-6789", "red", "4111 1111 1111 1111"}
	want := r.Classify(tied)
	for i := 0; i < 100; i++ {
		if got := r.Classify(tied); got != want {
			t.Fatalf("call %d: tied vote classified %v, first call %v", i, got, want)
		}
	}
}

func TestLearnedDiscovererBeatsRegexRecall(t *testing.T) {
	rng := ml.NewRNG(2)
	train := GenerateColumns(rng, 400)
	test := GenerateColumns(rng, 200)
	var ld LearnedDiscoverer
	if err := ld.Train(train); err != nil {
		t.Fatal(err)
	}
	regexRecall := SensitiveRecall(RegexRules{}, test)
	learnedRecall := SensitiveRecall(&ld, test)
	t.Logf("sensitive recall: regex %.2f, learned %.2f", regexRecall, learnedRecall)
	if learnedRecall <= regexRecall {
		t.Errorf("learned recall %.2f should beat regex %.2f (format variants)", learnedRecall, regexRecall)
	}
	if learnedRecall < 0.85 {
		t.Errorf("learned recall %.2f too low", learnedRecall)
	}
}

func TestStaticACLOverGrants(t *testing.T) {
	rng := ml.NewRNG(3)
	reqs := GenerateAccessLog(rng, 500)
	rep := EvaluateAccess(StaticACL{}, reqs)
	if rep.OverGrant < 0.3 {
		t.Errorf("static ACL over-grant %.2f; the role-only baseline should badly over-grant under a purpose policy", rep.OverGrant)
	}
}

func TestLearnedAccessBeatsStaticACL(t *testing.T) {
	rng := ml.NewRNG(4)
	train := GenerateAccessLog(rng, 1000)
	test := GenerateAccessLog(rng, 500)
	var la LearnedAccess
	if err := la.Train(train); err != nil {
		t.Fatal(err)
	}
	static := EvaluateAccess(StaticACL{}, test)
	learned := EvaluateAccess(&la, test)
	t.Logf("accuracy: static %.3f learned %.3f; over-grant: static %.3f learned %.3f",
		static.Accuracy, learned.Accuracy, static.OverGrant, learned.OverGrant)
	if learned.Accuracy <= static.Accuracy {
		t.Errorf("learned accuracy %.3f should beat static %.3f", learned.Accuracy, static.Accuracy)
	}
	if learned.OverGrant >= static.OverGrant {
		t.Errorf("learned over-grant %.3f should be below static %.3f", learned.OverGrant, static.OverGrant)
	}
	if learned.Accuracy < 0.9 {
		t.Errorf("learned accuracy %.3f too low for a learnable policy", learned.Accuracy)
	}
}

func TestAccessPolicyInternallyConsistent(t *testing.T) {
	admin := AccessRequest{Role: 2, Purpose: 2, Sensitivity: 1, OffHours: true}
	if !legalUnderPolicy(admin) {
		t.Error("admins are always legal under the policy")
	}
	marketing := AccessRequest{Role: 0, Purpose: 2, Sensitivity: 0.9}
	if legalUnderPolicy(marketing) {
		t.Error("marketing on sensitive data must be illegal")
	}
}
