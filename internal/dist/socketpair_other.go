//go:build !unix

package dist

import (
	"errors"
	"os"
)

// socketPair has no implementation here: a rank inherits its
// connections through exec.Cmd.ExtraFiles, which only unix hosts support.
func socketPair() ([2]*os.File, error) {
	return [2]*os.File{}, errors.New("distributed ranks need a unix host")
}
