package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestJobMixDeterministic(t *testing.T) {
	a, b := jobMix(42, 100), jobMix(42, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed must always yield the same job mix")
	}
	if reflect.DeepEqual(a, jobMix(43, 100)) {
		t.Fatal("different seeds should yield different orders")
	}
	if !reflect.DeepEqual(jobMix(42, 30), a[:30]) {
		t.Fatal("a shorter mix must be a prefix of a longer one")
	}
}

func TestJobMixDeckComposition(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		mix := jobMix(seed, 3*deckSize)
		for d := 0; d < 3; d++ {
			deck := mix[d*deckSize : (d+1)*deckSize]
			combos := map[[3]any]int{}
			var steps []int
			f32, reo := 0, 0
			for _, j := range deck {
				if err := j.Normalize(); err != nil {
					t.Fatalf("seed %d: invalid spec %+v: %v", seed, j, err)
				}
				combos[[3]any{j.Level, j.Ensemble, j.Mode}]++
				steps = append(steps, j.Steps)
				if j.Precision == "float32" {
					f32++
				}
				if j.Reorder {
					reo++
				}
				if j.CheckpointEvery != 10 || j.Workers != 1 {
					t.Errorf("seed %d: job %+v: want checkpoint every 10 steps on 1 thread", seed, j)
				}
			}
			if len(combos) != deckSize {
				t.Errorf("seed %d deck %d: %d distinct (level, K, mode) combinations, want %d", seed, d, len(combos), deckSize)
			}
			sort.Ints(steps)
			if !reflect.DeepEqual(steps, mixSteps) {
				t.Errorf("seed %d deck %d: steps %v, want %v", seed, d, steps, mixSteps)
			}
			if f32 != 3 || reo != 3 {
				t.Errorf("seed %d deck %d: %d float32 and %d reorder jobs, want 3 and 3", seed, d, f32, reo)
			}
		}
	}
}
