package main

import (
	"math/rand"

	"repro/internal/serve"
)

// deckSize is the length of one stratified deck of the ensemble job mix:
// every (level, ensemble size, mode) combination once.
const deckSize = 12

var (
	mixLevels    = []int{3, 4}
	mixEnsembles = []int{1, 4, 8}
	mixModes     = []string{"plan", "taskplan"}
	// mixSteps is the step multiset of one deck, spanning 20–40.
	mixSteps = []int{20, 22, 24, 25, 27, 29, 31, 33, 35, 36, 38, 40}
)

// jobMix returns the first n jobs of the seeded ensemble mix. The mix is a
// sequence of decks; each deck holds every (level, K, mode) combination
// once, with the step counts of mixSteps, float32 on 3 of its 12 jobs and
// the locality renumbering on 3, and the seed only shuffles the pairing and
// the order. A run therefore sees the same composition on every seed, and
// one seed always yields the same jobs.
func jobMix(seed int64, n int) []serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []serve.JobSpec
	for len(out) < n {
		var deck []serve.JobSpec
		for _, lv := range mixLevels {
			for _, k := range mixEnsembles {
				for _, mode := range mixModes {
					deck = append(deck, serve.JobSpec{TestCase: 5, Level: lv, Mode: mode,
						Ensemble: k, Workers: 1, CheckpointEvery: 10})
				}
			}
		}
		steps := rng.Perm(deckSize)
		f32 := rng.Perm(deckSize)[:3]
		reo := rng.Perm(deckSize)[:3]
		for i := range deck {
			deck[i].Steps = mixSteps[steps[i]]
			deck[i].PerturbSeed = rng.Uint64()
		}
		for _, i := range f32 {
			deck[i].Precision = "float32"
		}
		for _, i := range reo {
			deck[i].Reorder = true
		}
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		out = append(out, deck...)
	}
	return out[:n]
}
