// Package jsonenc appends JSON scalars byte for byte as encoding/json
// renders them (HTML-escaping on, the default of both json.Marshal and
// json.Encoder), for the read paths that build a response by appending
// instead of reflecting over a map.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendString appends s as a JSON string. Strings of printable ASCII
// with nothing to escape — every name and policy spec the engine
// produces — take the copy loop; anything else is handed to
// encoding/json, so the output can never diverge from it.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends a finite float64 the way encoding/json does:
// shortest representation, exponent form only below 1e-6 or from 1e21
// up, and a one-digit negative exponent without its leading zero.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
