// Medical prescriptions: the paper's full Figure 1(b) scenario, where TGDs
// and CDDs interact — the contradiction between Aspirin and Nsaids only
// appears after the chase derives that John must be prescribed Nsaids for
// his migraine. The example then replays the §4.1 oracle dialogue: an
// expert who has a specific repair in mind answers the questions, and the
// inquiry reconstructs exactly that repair.
//
// Run with: go run ./examples/medical
package main

import (
	"fmt"
	"log"

	"kbrepair"
)

const medicalKB = `
prescribed(Aspirin, John).
hasAllergy(John, Aspirin).
hasAllergy(Mike, Penicillin).
hasPain(John, Migraine).
isPainKillerFor(Nsaids, Migraine).
incompatible(Aspirin, Nsaids).

# A painkiller for a condition is prescribed to whoever has the condition.
[tgd] isPainKillerFor(X, Y), hasPain(Z, Y) -> prescribed(X, Z).

# Never prescribe a drug to someone allergic to it.
[cdd] prescribed(X, Y), hasAllergy(Y, X) -> !.
# Never prescribe incompatible drugs to the same person.
[cdd] prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y) -> !.
`

func main() {
	kb, err := kbrepair.ParseKB(medicalKB)
	if err != nil {
		log.Fatal(err)
	}

	// The chase derives prescribed(Nsaids, John) — Example 2.1.
	chased, err := kb.Chase()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("derived by the chase:")
	for _, id := range chased.Derived() {
		fmt.Printf("  %s\n", chased.Store.FactRef(id))
	}

	// Example 2.4: two conflicts, one only visible through the chase.
	conflicts, res, err := kbrepair.AllConflicts(kb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconflicts: %d total, %d visible without the chase\n",
		len(conflicts), len(kbrepair.NaiveConflicts(kb)))
	for _, c := range conflicts {
		fmt.Printf("  %s\n  base support:\n", c.CDD)
		for _, f := range c.BaseFacts {
			fmt.Printf("    %s\n", res.Store.FactRef(f))
		}
	}

	// The oracle has this repair in mind: the allergy record actually
	// belongs to Mike, and the drug incompatibility's first entry is an
	// unknown drug (a data-entry error).
	target := kb.Facts.Clone()
	target.MustSetValue(kbrepair.Position{Fact: 1, Arg: 0}, kbrepair.Const("Mike"))
	target.MustSetValue(kbrepair.Position{Fact: 5, Arg: 0}, target.NullForPos(kbrepair.Position{Fact: 5, Arg: 0}))

	oracle := kbrepair.NewOracle(target, 1)
	engine := kbrepair.NewEngine(kb, kbrepair.RandomStrategy(), oracle, 1, kbrepair.EngineOptions{})
	result, err := engine.RunBasic()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\noracle dialogue: %d questions\n", result.Questions)
	fmt.Println("facts after repair:")
	fmt.Print(kb.Facts)

	// Proposition 4.8 in action: the result IS the oracle's repair.
	fmt.Printf("result equals the oracle's repair (up to null renaming): %v\n",
		kb.Facts.EqualUpToNullRenaming(target))
}
