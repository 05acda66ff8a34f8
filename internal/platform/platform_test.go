package platform

import (
	"strings"
	"testing"
)

func TestTable1Facts(t *testing.T) {
	s, d := Server(), Desktop()
	if s.CPU.Cores != 16 || s.CPU.Threads != 32 {
		t.Error("server core/thread counts wrong")
	}
	if d.CPU.Cores != 12 || d.CPU.Threads != 24 {
		t.Error("desktop core/thread counts wrong")
	}
	if s.CPU.BaseClockGHz != 2.0 || s.CPU.MaxClockGHz != 4.0 {
		t.Error("server clocks wrong")
	}
	if d.CPU.BaseClockGHz != 4.7 || d.CPU.MaxClockGHz != 5.6 {
		t.Error("desktop clocks wrong")
	}
	if s.CPU.LLCBytes != 30*MiB || d.CPU.LLCBytes != 64*MiB {
		t.Error("LLC sizes wrong")
	}
	if s.DRAMBytes != 512*GiB || d.DRAMBytes != 64*GiB {
		t.Error("DRAM sizes wrong")
	}
	if s.GPU.MemBytes != 80*GiB || d.GPU.MemBytes != 16*GiB {
		t.Error("GPU memory sizes wrong")
	}
}

func TestPaperCharacterContrasts(t *testing.T) {
	s, d := Server().CPU, Desktop().CPU
	if s.BaseIPC <= d.BaseIPC {
		t.Error("Intel must have the higher per-cycle efficiency (Sec V-B2a)")
	}
	if s.BranchQuality >= d.BranchQuality {
		t.Error("Intel must have the better branch predictor character")
	}
	if s.TLBReachBytes <= d.TLBReachBytes {
		t.Error("Intel's measured dTLB path must have the larger reach")
	}
	if d.MaxClockGHz <= s.MaxClockGHz {
		t.Error("desktop must have the frequency advantage")
	}
	if d.LLCBytes <= s.LLCBytes {
		t.Error("AMD must have the larger LLC")
	}
}

func TestVariants(t *testing.T) {
	cxl := ServerWithCXL()
	if cxl.CXLBytes != 256*GiB {
		t.Error("CXL expansion size wrong")
	}
	if cxl.TotalMemBytes() != (512+256)*GiB {
		t.Error("total memory with CXL wrong")
	}
	up := DesktopUpgraded()
	if up.DRAMBytes != 128*GiB {
		t.Error("upgraded desktop DRAM wrong")
	}
	if Server().TotalMemBytes() != 512*GiB {
		t.Error("server without CXL must not count expansion")
	}
}

func TestClockScaling(t *testing.T) {
	c := Server().CPU
	if got := c.ClockGHz(1); got != c.MaxClockGHz {
		t.Errorf("single-core clock = %v, want max boost", got)
	}
	allCore := c.ClockGHz(c.Cores)
	if allCore >= c.MaxClockGHz {
		t.Error("all-core clock must be below single-core boost")
	}
	if allCore < c.BaseClockGHz {
		t.Error("clock must not fall below base")
	}
	// Monotonically non-increasing in active cores.
	prev := c.ClockGHz(1)
	for n := 2; n <= c.Cores+2; n++ {
		cur := c.ClockGHz(n)
		if cur > prev {
			t.Fatalf("clock increased at %d cores", n)
		}
		prev = cur
	}
}

func TestByName(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", m.Name, err)
		}
		if got.Name != m.Name {
			t.Errorf("ByName(%q) returned %q", m.Name, got.Name)
		}
	}
	// The CLIs' -machine spellings resolve to the same platforms.
	for flag, want := range map[string]string{
		"server": Server().Name, "server-cxl": ServerWithCXL().Name,
		"desktop": Desktop().Name, "desktop-upgraded": DesktopUpgraded().Name,
	} {
		if got, err := ByName(flag); err != nil || got.Name != want {
			t.Errorf("ByName(%q) = %q, %v; want %q", flag, got.Name, err, want)
		}
	}
	_, err := ByName("Mainframe")
	if err == nil {
		t.Fatal("unknown platform accepted")
	}
	if !strings.Contains(err.Error(), "desktop-upgraded") {
		t.Errorf("error %q does not list the accepted names", err)
	}
}
