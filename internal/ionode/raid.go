// Package ionode models one I/O node of the storage architecture (Fig. 1):
// a set of member disks organized as RAID 5 or RAID 10 (Table II), fronted
// by a storage cache (64 MB default) with sequential prefetch, fed by
// stripe-unit requests from the parallel file system. Power management
// operates on the whole node: the paper spins down/up all disks of a node
// together, so one policy instance attaches to each member disk and all
// members see the node's request stream.
package ionode

import "fmt"

// RAIDLevel selects the intra-node redundancy layout.
type RAIDLevel int

// Supported levels (Table II lists 5 and 10; 0 is provided for ablations).
const (
	// RAID0 stripes without redundancy.
	RAID0 RAIDLevel = iota
	// RAID5 stripes with rotating parity; writes touch data + parity disk.
	RAID5
	// RAID10 mirrors pairs of striped disks; writes touch both mirrors,
	// reads alternate between them.
	RAID10
)

// String names the level.
func (l RAIDLevel) String() string {
	switch l {
	case RAID0:
		return "RAID0"
	case RAID5:
		return "RAID5"
	case RAID10:
		return "RAID10"
	default:
		return "invalid"
	}
}

// ParseRAID parses "RAID0", "RAID5", "RAID10" (case-sensitive) or the bare
// digits.
func ParseRAID(s string) (RAIDLevel, error) {
	switch s {
	case "RAID0", "0":
		return RAID0, nil
	case "RAID5", "5":
		return RAID5, nil
	case "RAID10", "10":
		return RAID10, nil
	}
	return 0, fmt.Errorf("ionode: unknown RAID level %q", s)
}

// diskIO is one physical-disk operation derived from a logical unit access.
type diskIO struct {
	disk   int
	sector int64
	bytes  int64
	write  bool
}

// raidMap translates a logical (unit, offset, length, isWrite) access into
// member-disk operations for the given level and member count. It fills
// out and returns how many operations it wrote (one or two).
//
// Unit-to-disk placement:
//   - RAID0: data disk = unit mod n; row = unit div n.
//   - RAID5: per row of n units, one disk holds parity (rotating,
//     parity disk = row mod n); the n−1 data units of the row fill the
//     remaining disks in order. Writes add a parity update on the row's
//     parity disk (read-modify-write collapsed into one operation, which
//     preserves the power/occupancy behaviour the evaluation needs).
//   - RAID10: mirror pairs; pair = unit mod (n/2), row = unit div (n/2).
//     Reads go to one mirror (alternating by row), writes to both.
func raidMap(level RAIDLevel, members int, unit, offset, length int64, write bool, sectorSize, unitBytes int64, out *[2]diskIO) (int, error) {
	if members <= 0 {
		return 0, fmt.Errorf("ionode: %d members", members) //sddsvet:ignore hotalloc -- error path: rejected by Config.Validate
	}
	if level == RAID5 && members < 3 {
		return 0, fmt.Errorf("ionode: RAID5 needs ≥3 members, got %d", members) //sddsvet:ignore hotalloc -- error path: rejected by Config.Validate
	}
	if level == RAID10 && (members < 2 || members%2 != 0) {
		return 0, fmt.Errorf("ionode: RAID10 needs an even member count ≥2, got %d", members) //sddsvet:ignore hotalloc -- error path: rejected by Config.Validate
	}
	sectorsPerUnit := unitBytes / sectorSize
	if sectorsPerUnit <= 0 {
		sectorsPerUnit = 1
	}
	switch level {
	case RAID0:
		row := unit / int64(members)
		d := int(unit % int64(members))
		out[0] = diskIO{disk: d, sector: row*sectorsPerUnit + offset/sectorSize, bytes: length, write: write}
		return 1, nil

	case RAID5:
		dataPerRow := int64(members - 1)
		row := unit / dataPerRow
		parityDisk := int(row % int64(members))
		k := int(unit % dataPerRow) // k-th data unit within the row
		d := k
		if d >= parityDisk {
			d++
		}
		sector := row*sectorsPerUnit + offset/sectorSize
		out[0] = diskIO{disk: d, sector: sector, bytes: length, write: write}
		if write {
			out[1] = diskIO{disk: parityDisk, sector: sector, bytes: length, write: true}
			return 2, nil
		}
		return 1, nil

	case RAID10:
		pairs := int64(members / 2)
		pair := unit % pairs
		row := unit / pairs
		a := int(pair * 2)
		b := a + 1
		sector := row*sectorsPerUnit + offset/sectorSize
		if write {
			out[0] = diskIO{disk: a, sector: sector, bytes: length, write: true}
			out[1] = diskIO{disk: b, sector: sector, bytes: length, write: true}
			return 2, nil
		}
		// Alternate mirrors by row to balance read load.
		d := a
		if row%2 == 1 {
			d = b
		}
		out[0] = diskIO{disk: d, sector: sector, bytes: length, write: false}
		return 1, nil

	default:
		return 0, fmt.Errorf("ionode: invalid RAID level %d", level) //sddsvet:ignore hotalloc -- error path: rejected by Config.Validate
	}
}
