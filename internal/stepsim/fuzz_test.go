package stepsim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/routing"
)

// fuzzSnapshotConfigs are the small runs whose captures seed
// FuzzUnmarshalSnapshot, covering both key formats and a two-stepper
// router, and against which every decoded input is resumed.
func fuzzSnapshotConfigs() []Config {
	xy := arrayCfg(4, 0.8, 7)
	rand := arrayCfg(4, 0.8, 7)
	rand.Router = routing.RandGreedy{A: rand.Router.(routing.GreedyXY).A}
	torus := torusCfg(4, 0.3, 7)
	cfgs := []Config{xy, rand, torus}
	for i := range cfgs {
		cfgs[i].WarmupSlots, cfgs[i].Slots = 20, 80
	}
	return cfgs
}

// FuzzUnmarshalSnapshot feeds hostile bytes to the SLOTSNP1 decoder and
// resumes every snapshot it accepts. Decoding must never panic, and a
// resumed run must either return an error or finish: the restore checks
// guard every table the engine indexes with snapshot data (ring entries'
// destination keys and stepper choices index the route-step table). Each
// input is decoded twice, as given and with its checksum trailer
// recomputed, so mutations also reach the field decoders and the restore
// checks instead of stopping at the CRC. Run with:
//
//	go test -run '^$' -fuzz FuzzUnmarshalSnapshot -fuzztime 5s ./internal/stepsim
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
			cfg.WarmupSlots, cfg.Slots = 5, 30
			_, _ = Run(cfg)
		}
	})
}

// TestSnapshotResumeRejectsHostile pins the restore checks the fuzzer
// relies on: each hostile ring entry or stream state, planted in an
// otherwise valid capture, makes the resumed run return an error instead
// of indexing the route-step table out of range.
func TestSnapshotResumeRejectsHostile(t *testing.T) {
	for i, cfg := range fuzzSnapshotConfigs() {
		cfg.Capture = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Snapshot.Entries) == 0 {
			t.Fatal("capture has no queued entries to corrupt")
		}
		cases := []struct {
			name   string
			mutate func(sn *Snapshot)
		}{
			{"key-range", func(sn *Snapshot) { sn.Entries[0] |= uint64(sn.NumNodes+1) << (entKeyShift + routing.CoordBits) }},
			{"key-negative", func(sn *Snapshot) { sn.Entries[0] |= 1 << 63 }},
			{"choice", func(sn *Snapshot) { sn.Entries[0] |= entChoiceMask << entSlotBits }},
			{"measured", func(sn *Snapshot) { sn.Entries[0] |= entMeasured }},
			{"rng", func(sn *Snapshot) { sn.RNG[0] = [4]uint64{} }},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%d", c.name, i), func(t *testing.T) {
				sn := *res.Snapshot
				sn.Entries = append([]uint64(nil), sn.Entries...)
				sn.RNG = append([][4]uint64(nil), sn.RNG...)
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
}
