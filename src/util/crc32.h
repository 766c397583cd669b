// CRC-32 (IEEE 802.3 polynomial, reflected). It checks every socket frame's
// payload and every checkpoint payload, fingerprints the parameter replicas
// (ParametersCrc), and produces the printed `logits crc32` lines. The classic
// check value is Crc32("123456789", 9) == 0xCBF43926.
//
// Where the build targets PCLMULQDQ and SSE4.1 (`__PCLMUL__` and
// `__SSE4_1__`, both set by the repository's -march=native on x86), Crc32
// folds each 16-byte-multiple body of at least 64 bytes with carry-less
// multiplies (crc32.cc); the tail, inputs under 64 bytes and every other
// build run the bytewise table loop. Both give the same bits.
#ifndef SRC_UTIL_CRC32_H_
#define SRC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace flexgraph {

// Incremental update: feed the previous return value back in as `crc` to
// checksum data arriving in chunks. Start from the default for a fresh sum.
uint32_t Crc32(const void* data, std::size_t size, uint32_t crc = 0);

// The same CRC from the table loop alone, one byte at a time: the reference
// the fold is tested against.
uint32_t Crc32Bytewise(const void* data, std::size_t size, uint32_t crc = 0);

}  // namespace flexgraph

#endif  // SRC_UTIL_CRC32_H_
