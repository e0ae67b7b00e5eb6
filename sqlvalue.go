package idea

import (
	"database/sql/driver"
	"fmt"

	"github.com/ideadb/idea/internal/adm"
)

// database/sql integration for Value, so the "idea" driver (package
// github.com/ideadb/idea/driver) round-trips Values idiomatically:
// pass a Value as a query argument (driver.Valuer) and scan a result
// column into one (sql.Scanner).
//
//	var v idea.Value
//	err := db.QueryRow(`SELECT VALUE t FROM Tweets t WHERE t.id = $1`, 7).Scan(&v)
//
// Scalars map onto native driver types; objects, arrays, and the
// extended types (spatial, duration) travel as their JSON encoding, so
// a point comes back as a [x,y] array rather than a typed point — use
// the in-process API when extended-type fidelity matters.

// Value implements database/sql/driver.Valuer: scalar kinds convert to
// their native driver representation, everything else to JSON bytes.
func (v Value) Value() (driver.Value, error) { return v.v.DriverValue(), nil }

// Scan implements database/sql.Scanner: the inverse of Value. []byte
// sources parse as JSON (the composite encoding above); string sources
// stay strings.
func (v *Value) Scan(src any) error {
	parsed, err := adm.FromGo(src)
	if err != nil {
		return fmt.Errorf("idea: Scan: %w", err)
	}
	v.v = parsed
	return nil
}
