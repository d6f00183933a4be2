package plant

import "strconv"

// The reconstructed SIDMAR topology (paper Figure 2). Two tracks of seven
// slots each run from a converter-vessel load point (slot 0) past the
// track's machines to a crane exit point (slot 6). One overhead crane track
// with eight stop points spans the track entries and exits, the buffer
// place, the caster's holding place, the caster's output position, and the
// storage place for empty ladles. Two cranes share the overhead track and
// cannot overtake each other.

// Track slot indices.
const (
	SlotLoad  = 0 // under the converter vessel
	SlotExit  = 6 // crane pickup/set-down point
	TrackLen  = 7
	NumTracks = 2
)

// Machine identifiers (also the values of the `next` guide variable, which
// additionally uses DestNone/DestCast/DestStore).
const (
	DestNone  = 0
	M1        = 1
	M2        = 2
	M3        = 3
	M4        = 4
	M5        = 5
	DestCast  = 6
	DestStore = 7
	NumMach   = 5
)

// Overhead crane stop points, left to right.
const (
	PtEntry1  = 0
	PtExit1   = 1
	PtEntry2  = 2
	PtExit2   = 3
	PtBuffer  = 4
	PtHold    = 5
	PtCastOut = 6
	PtStore   = 7
	NumPts    = 8
)

// pointNames index by point constant.
var pointNames = [NumPts]string{
	"Entry1", "Exit1", "Entry2", "Exit2", "Buffer", "Holding", "CastOut", "Storage",
}

// PointName returns the human-readable name of an overhead point.
func PointName(p int) string { return pointNames[p] }

// machineTrack and machineSlot locate machine m (1-based).
var (
	machineTrack = [NumMach + 1]int{0, 1, 1, 1, 2, 2}
	machineSlot  = [NumMach + 1]int{0, 1, 3, 5, 1, 3}
)

// MachineTrack returns the track (1 or 2) of machine m.
func MachineTrack(m int) int { return machineTrack[m] }

// MachineSlot returns the slot index of machine m on its track.
func MachineSlot(m int) int { return machineSlot[m] }

// MachineAtSlot returns the machine at (track, slot), or 0.
func MachineAtSlot(track, slot int) int {
	for m := 1; m <= NumMach; m++ {
		if machineTrack[m] == track && machineSlot[m] == slot {
			return m
		}
	}
	return 0
}

// trackEntryPoint and trackExitPoint map tracks to overhead points.
func trackEntryPoint(track int) int {
	if track == 1 {
		return PtEntry1
	}
	return PtEntry2
}

func trackExitPoint(track int) int {
	if track == 1 {
		return PtExit1
	}
	return PtExit2
}

// liftablePoints are the overhead points where a crane can pick a ladle up;
// the holding place only feeds the caster and the storage place is final,
// so neither is liftable.
var liftablePoints = []int{PtEntry1, PtExit1, PtEntry2, PtExit2, PtBuffer, PtCastOut}

// droppablePoints are the points where a crane can set a ladle down; the
// caster output only receives ladles from the casting machine itself.
var droppablePoints = []int{PtEntry1, PtExit1, PtEntry2, PtExit2, PtBuffer, PtHold, PtStore}

// pointOcc returns the variable holding the occupancy flag of an
// overhead point's landing position (nil for storage, which is uncapped).
func (b *builder) pointOcc(p int) cell {
	switch p {
	case PtEntry1:
		return b.posi[SlotLoad]
	case PtExit1:
		return b.posi[SlotExit]
	case PtEntry2:
		return b.posii[SlotLoad]
	case PtExit2:
		return b.posii[SlotExit]
	case PtBuffer:
		return b.bufocc
	case PtHold:
		return b.holdocc
	case PtCastOut:
		return b.outocc
	default:
		return nil
	}
}

// trackOcc returns the occupancy array of a track (posi or posii).
func (b *builder) trackOcc(track int) array {
	if track == 1 {
		return b.posi
	}
	return b.posii
}

// Layout renders the plant as ASCII art (the repository's Figure 2).
func Layout() string {
	return `        overhead crane track (cranes 1 and 2, no overtaking)
  [0]======[1]======[2]======[3]======[4]======[5]======[6]======[7]
 Entry1   Exit1   Entry2   Exit2   Buffer  Holding  CastOut  Storage
   |        |       |        |        .       |        |        .
   v        ^       v        ^                v        ^
 vessel1 ->[s0][m1][s2][m2][s4][m3][s6]     +-------------------+
            track 1 (posi[0..6])            | continuous caster |
 vessel2 ->[s0][m4][s2][m5][s4][s5][s6]     | hold -> cast ->out|
            track 2 (posii[0..6])           +-------------------+
 machine types: A = {m1, m4}   B = {m2, m5}   m3 unique (track 1)`
}

// qualityName formats a quality for messages.
func qualityName(q Quality) string { return "Q" + strconv.Itoa(int(q)) }
