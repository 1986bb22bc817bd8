package powerbench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hybridperf/internal/machine"
)

// renderPin renders a characterisation bit for bit, one reading per line
// in (frequency, cores) order: the fitted power model, then the raw idle,
// network, spin and stall readings.
func renderPin(res *Result) string {
	var b strings.Builder
	m := res.Model
	fmt.Fprintf(&b, "idle %x net %x mem %x pnet %x\n", m.PSysIdle, res.NetWatts, m.PMem, m.PNet)
	var freqs []float64
	for f := range m.PAct {
		freqs = append(freqs, f)
	}
	sort.Float64s(freqs)
	for _, f := range freqs {
		fmt.Fprintf(&b, "%.1fGHz act %x stall %x\n", f/1e9, m.PAct[f], m.PStall[f])
	}
	var cfs []machine.CF
	for cf := range res.SpinWatts {
		cfs = append(cfs, cf)
	}
	sort.Slice(cfs, func(i, j int) bool {
		if cfs[i].Freq != cfs[j].Freq {
			return cfs[i].Freq < cfs[j].Freq
		}
		return cfs[i].Cores < cfs[j].Cores
	})
	for _, cf := range cfs {
		fmt.Fprintf(&b, "%v spin %x stall %x\n", cf, res.SpinWatts[cf], res.StallWatts[cf])
	}
	fmt.Fprintf(&b, "idle reading %x, %d spin, %d stall", res.IdleWatts, len(res.SpinWatts), len(res.StallWatts))
	return b.String()
}

// characterizePins holds the seed-42 characterisations recorded when the
// micro-benchmarks still ran on goroutine process bodies; the continuation
// machines that replaced them must reproduce every bit.
var characterizePins = map[string]string{
	"xeon-e5-2603": `idle 0x1.093f475080143p+06 net 0x1.15ba9fd772633p+06 mem 0x1.2p+03 pnet 0x1.8f6b10de49ep+01
1.2GHz act 0x1.a92537cd2ecap+01 stall 0x1.3c153a2e20754p+01
1.5GHz act 0x1.1e27ca617b354p+02 stall 0x1.7568fe7bd6bc8p+01
1.8GHz act 0x1.7abee587985fap+02 stall 0x1.ae967a7f67fbcp+01
(1,1.2GHz) spin 0x1.1dedcf0558892p+06 stall 0x1.2e037e6cf44ebp+06
(2,1.2GHz) spin 0x1.21c69aafce7c9p+06 stall 0x1.378bd8e5cc2ebp+06
(3,1.2GHz) spin 0x1.27308121224d7p+06 stall 0x1.531a92a9b31e7p+06
(4,1.2GHz) spin 0x1.34eeaa4542454p+06 stall 0x1.5b22b6a28a05fp+06
(5,1.2GHz) spin 0x1.4e23e59c2af06p+06 stall 0x1.4ce5990cc12e3p+06
(6,1.2GHz) spin 0x1.5b5808a2befd5p+06 stall 0x1.5e616f093986p+06
(7,1.2GHz) spin 0x1.67b625c576b47p+06 stall 0x1.697402487f0cap+06
(8,1.2GHz) spin 0x1.73889543cbc6bp+06 stall 0x1.7c4495dc08318p+06
(1,1.5GHz) spin 0x1.23b16645051a5p+06 stall 0x1.393ae272d70bdp+06
(2,1.5GHz) spin 0x1.35fc956854413p+06 stall 0x1.464c59c92a996p+06
(3,1.5GHz) spin 0x1.41f868b456494p+06 stall 0x1.438706ea3c2fep+06
(4,1.5GHz) spin 0x1.4ea578bde50ccp+06 stall 0x1.5caac1cd37ee9p+06
(5,1.5GHz) spin 0x1.6011b2e1360fep+06 stall 0x1.61d81f4d773cp+06
(6,1.5GHz) spin 0x1.723df0e5e61b6p+06 stall 0x1.774e4ba96f05ep+06
(7,1.5GHz) spin 0x1.88d086953fe44p+06 stall 0x1.7494a6dd90c19p+06
(8,1.5GHz) spin 0x1.98532c813daedp+06 stall 0x1.8a9986ef75c35p+06
(1,1.8GHz) spin 0x1.2cbae9f92eccbp+06 stall 0x1.413bd6d803d2dp+06
(2,1.8GHz) spin 0x1.3eb4c218e0021p+06 stall 0x1.4c36a1f182c8fp+06
(3,1.8GHz) spin 0x1.5758d5ae85bap+06 stall 0x1.5a61a688af7d4p+06
(4,1.8GHz) spin 0x1.715165ad20ce1p+06 stall 0x1.6be2aa759d7acp+06
(5,1.8GHz) spin 0x1.868eaf710e59dp+06 stall 0x1.72b8411ba40dap+06
(6,1.8GHz) spin 0x1.a821d907b408dp+06 stall 0x1.91968e76212ecp+06
(7,1.8GHz) spin 0x1.a9e7437674dbep+06 stall 0x1.8fb9eea2edb39p+06
(8,1.8GHz) spin 0x1.c69eba144c44p+06 stall 0x1.98e4e5f05a132p+06
idle reading 0x1.093f475080143p+06, 24 spin, 24 stall`,
	"arm-cortex-a9": `idle 0x1.2194fb9ccd4e2p+01 net 0x1.b6c462d38f0b6p+01 mem 0x1.6666666666666p-01 pnet 0x1.2a5ece6d837a8p+00
0.2GHz act 0x1.6b5009388462p-05 stall 0x1.0895db8602eb5p-02
0.5GHz act 0x1.4aefe4ede09a8p-02 stall 0x1.6df3e4a5ec039p-02
0.8GHz act 0x1.8663347246f36p-02 stall 0x1.129040d1a48edp-02
1.1GHz act 0x1.5f78d622de47p-01 stall 0x1.cb7b17d43c459p-02
1.4GHz act 0x1.07e80f3ce39a3p+00 stall 0x1.1aef8a6d4a4fep-01
(1,0.2GHz) spin 0x1.65b9cebf7b96fp+01 stall 0x1.575d9e5e9078cp+01
(2,0.2GHz) spin 0x1.3e2054d2e6a33p+01 stall 0x1.6c274e9f8c1f1p+01
(3,0.2GHz) spin 0x1.208decabdd9fbp+01 stall 0x1.f44c083b1476fp+01
(4,0.2GHz) spin 0x1.3849fc3055944p+01 stall 0x1.ff7982f9685d6p+01
(1,0.5GHz) spin 0x1.725606a453dddp+01 stall 0x1.66fc012df6c25p+01
(2,0.5GHz) spin 0x1.934e239f06b88p+01 stall 0x1.b58cb03e4ffeep+01
(3,0.5GHz) spin 0x1.aeec814dd106ep+01 stall 0x1.db1462f92903cp+01
(4,0.5GHz) spin 0x1.c70cee13bd9b6p+01 stall 0x1.191443c4ae74cp+02
(1,0.8GHz) spin 0x1.8c983f98fb2c6p+01 stall 0x1.9defb4fc55a48p+01
(2,0.8GHz) spin 0x1.c36f1e5a36a91p+01 stall 0x1.c8283b337ce0bp+01
(3,0.8GHz) spin 0x1.d1e3b1531e2d1p+01 stall 0x1.8cffb7596a8a8p+01
(4,0.8GHz) spin 0x1.e4c695d5f0c7dp+01 stall 0x1.023b5acf9c979p+02
(1,1.1GHz) spin 0x1.76080521f381cp+01 stall 0x1.a5742a0341c15p+01
(2,1.1GHz) spin 0x1.cb55281f20e51p+01 stall 0x1.0b2e409e42722p+02
(3,1.1GHz) spin 0x1.1e657149dfe89p+02 stall 0x1.ec7668f23a7eap+01
(4,1.1GHz) spin 0x1.4086e8dfd5ca9p+02 stall 0x1.3076109042854p+02
(1,1.4GHz) spin 0x1.e21ce3ab68f5p+01 stall 0x1.dd5602d722b6p+01
(2,1.4GHz) spin 0x1.194caa8d0a43dp+02 stall 0x1.031cda8f551b1p+02
(3,1.4GHz) spin 0x1.56ded4bdd4e29p+02 stall 0x1.21c008dfa5411p+02
(4,1.4GHz) spin 0x1.98b28d0b4a414p+02 stall 0x1.4b0f0fd1d89bdp+02
idle reading 0x1.2194fb9ccd4e2p+01, 20 spin, 20 stall`,
}

// TestCharacterizePinned holds the power characterisation of both
// reference systems to the recorded bits.
func TestCharacterizePinned(t *testing.T) {
	for _, prof := range []*machine.Profile{machine.XeonE5(), machine.ARMCortexA9()} {
		res, err := Characterize(prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderPin(res), characterizePins[prof.Name]; got != want {
			t.Errorf("%s characterisation drifted:\n got\n%s\n want\n%s", prof.Name, got, want)
		}
	}
}
