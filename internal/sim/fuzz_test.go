package sim

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/bounds"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fuzzSnapshotConfigs are the small runs whose captures seed
// FuzzUnmarshalSnapshot, one per checkpointable arrival model and router
// kind, and against which every decoded input is resumed.
func fuzzSnapshotConfigs() []Config {
	a := topology.NewArray2D(4)
	rate := bounds.LambdaForLoad(4, 0.7)
	base := Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:     routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate: rate, Warmup: 20, Horizon: 100, Seed: 5,
	}
	rand, perNode, slotted := base, base, base
	rand.Router = routing.RandGreedy{A: a}
	perNode.PerNodeArrivals = true
	slotted.SlotTau = 1
	return []Config{base, rand, perNode, slotted}
}

// FuzzUnmarshalSnapshot feeds hostile bytes to the EVTSNAP1 decoder and
// resumes every snapshot it accepts. Decoding must never panic, and a
// resumed run must either return an error or finish: the restore checks
// guard every table the engine indexes with snapshot data (event slots,
// packet node ids and stepper choices, which index the route-step table).
// Each input is decoded twice, as given and with its checksum trailer
// recomputed, so mutations also reach the field decoders and the restore
// checks instead of stopping at the CRC. Run with:
//
//	go test -run '^$' -fuzz FuzzUnmarshalSnapshot -fuzztime 5s ./internal/sim
func FuzzUnmarshalSnapshot(f *testing.F) {
	cfgs := fuzzSnapshotConfigs()
	for _, cfg := range cfgs {
		cfg.Capture = true
		res, err := Run(cfg)
		if err != nil {
			f.Fatal(err)
		}
		data, err := res.Snapshot.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = UnmarshalSnapshot(data)
		if len(data) < 4 {
			return
		}
		body := data[: len(data)-4 : len(data)-4]
		sn, err := UnmarshalSnapshot(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		if err != nil {
			return
		}
		for _, cfg := range cfgs {
			cfg.Resume = sn
			cfg.Warmup, cfg.Horizon = 5, 30
			_, _ = Run(cfg)
		}
	})
}

// TestSimSnapshotResumeRejectsHostile pins the restore checks the fuzzer
// relies on: each hostile field, planted in an otherwise valid capture,
// makes the resumed run return an error instead of panicking or replaying
// the past.
func TestSimSnapshotResumeRejectsHostile(t *testing.T) {
	cfg := fuzzSnapshotConfigs()[0]
	cfg.Capture = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshot.PktCur) == 0 || len(res.Snapshot.EventSlots) == 0 {
		t.Fatal("capture has no queued packets or pending events to corrupt")
	}
	cases := []struct {
		name   string
		mutate func(sn *Snapshot)
	}{
		{"packet-node", func(sn *Snapshot) { sn.PktDst[0] = int32(sn.NumNodes) }},
		{"packet-choice", func(sn *Snapshot) { sn.PktChoice[0] = 1 }},
		{"time", func(sn *Snapshot) { sn.Time = 1e300 }},
		{"rng", func(sn *Snapshot) { sn.RNG = [4]uint64{} }},
		{"seq", func(sn *Snapshot) { sn.Seq = 1 << 62 }},
		{"event-past", func(sn *Snapshot) { sn.EventTBits[0] = 0 }},
		{"event-payload", func(sn *Snapshot) { sn.EventMeta[0] ^= 1 }},
		{"arrival-clock", func(sn *Snapshot) { sn.NextArrBits = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sn := *res.Snapshot
			sn.PktDst = append([]int32(nil), sn.PktDst...)
			sn.PktChoice = append([]uint8(nil), sn.PktChoice...)
			sn.EventTBits = append([]uint64(nil), sn.EventTBits...)
			sn.EventMeta = append([]uint64(nil), sn.EventMeta...)
			c.mutate(&sn)
			resume := cfg
			resume.Capture = false
			resume.Resume = &sn
			if _, err := Run(resume); err == nil {
				t.Fatal("hostile snapshot resumed without error")
			}
		})
	}
}
