package plant

import "testing"

// BenchmarkBuild times plant.Build, the step every fresh serve admission,
// plantsynth run and guide probe pays before any search: the 3-batch plant
// with all guides (a serve-resynth job) and without (its instance
// identity), and the 5-batch all-guides plant (synth-plant's model).
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		guides GuideLevel
	}{
		{"3-all", 3, AllGuides},
		{"3-none", 3, NoGuides},
		{"5-all", 5, AllGuides},
	} {
		cfg := Config{Qualities: CycleQualities(c.n), Guides: c.guides}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
