package chaos

import (
	"errors"
	"fmt"

	"power5prio/internal/cachestore"
)

// PutHook returns a cachestore put hook driven by the injector's OpPut
// rules (matched against the entry key's hex spelling). FaultENOSPC
// fails the write the way a full disk does; FaultTornWrite persists
// only an entry prefix, which the store's checksum must detect on the
// next read. Install with Store.SetPutHook.
func PutHook(inj *Injector) cachestore.PutHook {
	return func(k cachestore.Key, encoded []byte) ([]byte, error) {
		d := inj.decide(OpPut, k.String())
		if d == nil {
			return encoded, nil
		}
		switch d.fault {
		case FaultENOSPC:
			return nil, fmt.Errorf("chaos: injected write failure (rule %d): %w", d.rule, errNoSpace)
		case FaultTornWrite:
			n := d.bytes
			if n <= 0 || n >= int64(len(encoded)) {
				n = int64(len(encoded)) / 2
			}
			return encoded[:n], nil
		default:
			return encoded, nil
		}
	}
}

// errNoSpace mirrors the OS's ENOSPC message without importing
// syscall, keeping the shim portable.
var errNoSpace = errors.New("no space left on device")
