package netpipe

import (
	"fmt"
	"strings"
	"testing"

	"hybridperf/internal/core"
	"hybridperf/internal/machine"
)

// renderPin renders a network characterisation bit for bit: one line per
// measured point, then the fitted service model.
func renderPin(points []Point, nm core.NetModel) string {
	var b strings.Builder
	for _, p := range points {
		fmt.Fprintf(&b, "%x\n", p)
	}
	fmt.Fprintf(&b, "fit %x", nm)
	return b.String()
}

// characterizePins holds the seed-42 characterisations recorded when the
// micro-benchmarks still ran on goroutine process bodies; the continuation
// machines that replaced them must reproduce every bit.
var characterizePins = map[string]string{
	"xeon-e5-2603": `{0x1p+00 0x1.019610866e52p-13 0x1.fcd8df353ece1p+12}
{0x1p+01 0x1.019ad63467b2p-13 0x1.fccf7205d121dp+13}
{0x1p+02 0x1.01a461905a725p-13 0x1.fcbc98b32665cp+14}
{0x1p+03 0x1.01b778483ff3p-13 0x1.fc96ea3e0854ep+15}
{0x1p+04 0x1.01dda5b80af4p-13 0x1.fc4b9e10529c8p+16}
{0x1p+05 0x1.022a0097a0f6p-13 0x1.fbb548845a6d6p+17}
{0x1p+06 0x1.02c2b656ccfap-13 0x1.fa89a79636c58p+18}
{0x1p+07 0x1.03f421d52502p-13 0x1.f83685d41ff04p+19}
{0x1p+08 0x1.0656f8d1d51p-13 0x1.f3a07f7b478d6p+20}
{0x1p+09 0x1.0b1ca6cb353p-13 0x1.eab35f90845ap+21}
{0x1p+10 0x1.14a802bdf56f5p-13 0x1.d9c5a0ade0039p+22}
{0x1p+11 0x1.27bebaa375ecp-13 0x1.bb314bc25c21ep+23}
{0x1p+12 0x1.4dec2a6e76e4p-13 0x1.8885ae48490f2p+24}
{0x1p+13 0x1.9a470a0478d8p-13 0x1.3f78b9744dedcp+25}
{0x1p+14 0x1.197e64983e5ep-12 0x1.d1a159d7c5351p+25}
{0x1p+15 0x1.b23423c44244p-12 0x1.2dde1803bca01p+26}
{0x1p+16 0x1.71cfd10e2506p-11 0x1.626dcf479222ap+26}
{0x1p+17 0x1.519da7b31668p-10 0x1.843a6d4619befp+26}
{0x1p+18 0x1.418493058f193p-09 0x1.97aa92ae4f802p+26}
{0x1p+19 0x1.397808aecb72p-08 0x1.a2224e4d798f2p+26}
{0x1p+20 0x1.3571c383699ep-07 0x1.a792730bca89cp+26}
{0x1p+21 0x1.336ea0edb8b4p-06 0x1.aa5830718afe9p+26}
{0x1p+22 0x1.326d0fa2e03f8p-05 0x1.abbe8e0106aa3p+26}
{0x1p+23 0x1.31ec46fd7404fp-04 0x1.ac729f13289dbp+26}
{0x1p+24 0x1.31abe2aabde78p-03 0x1.accce0823eaa7p+26}
fit {0x1.01914ad874f5cp-13 0x1.ad2748p+26}`,
	"arm-cortex-a9": `{0x1p+00 0x1.d1c1107776413p-12 0x1.196b39d6e9b7p+11}
{0x1p+01 0x1.d1d8ecdd5522p-12 0x1.195ccfc013ab2p+12}
{0x1p+02 0x1.d208a5a912e33p-12 0x1.193ffffffffffp+13}
{0x1p+03 0x1.d26817408e66p-12 0x1.1906722fe288p+14}
{0x1p+04 0x1.d326fa6f856ap-12 0x1.18939d1d375e7p+15}
{0x1p+05 0x1.d4a4c0cd73745p-12 0x1.17af0b9bccad7p+16}
{0x1p+06 0x1.d7a04d894f88p-12 0x1.15ea3ebc349dap+17}
{0x1p+07 0x1.dd97670107bp-12 0x1.12719c7a4def9p+18}
{0x1p+08 0x1.e98599f077fcp-12 0x1.0bc150e9f7cfep+19}
{0x1p+09 0x1.00b0ffe7ac4cp-11 0x1.fe9ef4499ef49p+19}
{0x1p+10 0x1.188d65c68ce8p-11 0x1.d331543307a77p+20}
{0x1p+11 0x1.484631844e2p-11 0x1.8f46a698a3fa4p+21}
{0x1p+12 0x1.a7b7c8ffd09p-11 0x1.35567f4496ea8p+22}
{0x1p+13 0x1.334d7bfb6ab6p-10 0x1.aa862c42279a6p+22}
{0x1p+14 0x1.f230aaf26f96p-10 0x1.0718aa81cbcadp+23}
{0x1p+15 0x1.b7fb84703ca88p-09 0x1.29e71b93a537cp+23}
{0x1p+16 0x1.9ae0f12f2333p-08 0x1.3f010f511596ap+23}
{0x1p+17 0x1.8c53a78e9678p-07 0x1.4ab78cf2a832bp+23}
{0x1p+18 0x1.850d02be501a3p-06 0x1.50e6e9673f448p+23}
{0x1p+19 0x1.8169b0562cebcp-05 0x1.541502becd8b8p+23}
{0x1p+20 0x1.7f9807221b547p-04 0x1.55b1d9d21186p+23}
{0x1p+21 0x1.7eaf32881288bp-03 0x1.5681be1fecc7ap+23}
{0x1p+22 0x1.7e3ac83b0e23p-02 0x1.56ea0f40b9534p+23}
{0x1p+23 0x1.7e0093148beffp-01 0x1.571e4fa8eac6ep+23}
{0x1p+24 0x1.7de378814ad65p+00 0x1.573875d62458fp+23}
fit {0x1.d1a93411975c3p-12 0x1.5752ap+23}`,
}

// TestCharacterizePinned holds the NetPIPE sweep and fitted service model
// of both reference systems to the recorded bits.
func TestCharacterizePinned(t *testing.T) {
	for _, prof := range []*machine.Profile{machine.XeonE5(), machine.ARMCortexA9()} {
		points, nm, err := Characterize(prof)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderPin(points, nm), characterizePins[prof.Name]; got != want {
			t.Errorf("%s characterisation drifted:\n got\n%s\n want\n%s", prof.Name, got, want)
		}
	}
}
