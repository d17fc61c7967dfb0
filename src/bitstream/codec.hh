/**
 * @file
 * Entropy-coded wire format for LeCA byte streams (DESIGN.md §14).
 *
 * The sensor sends one thing off-chip per frame: the encoder's Q_bit
 * feature codes. encodeByteStream turns such a code stream (or any
 * compression baseline's wire symbols) into a self-describing
 * container (container.hh) with one codes section: the bytes go
 * through an optional delta predictor and the smaller of the rANS /
 * bit-packed coders. decodeByteStream reverses it bit-exactly.
 *
 * The encoder runs one deterministic policy (fixed candidate order,
 * strictly-smaller wins), and every coder is serial integer math, so
 * encoded bytes are identical across LECA_THREADS, LECA_ISA, and
 * hosts. Decoding goes through ContainerReader's up-front validation
 * and throws leca::CheckError on any corruption.
 */

#ifndef LECA_BITSTREAM_CODEC_HH
#define LECA_BITSTREAM_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitstream/container.hh"

namespace leca::bitstream {

/**
 * Encode an arbitrary byte-symbol stream (e.g. the per-pixel code
 * stream a compression baseline would transmit). @p predStride is the
 * delta predictor's distance — the row width for image-like streams,
 * 0 to disable prediction.
 */
std::vector<std::uint8_t> encodeByteStream(const std::uint8_t *data,
                                           std::size_t n,
                                           std::uint64_t predStride);

/** Decode a kKindByteStream container; CheckError on corruption. */
std::vector<std::uint8_t> decodeByteStream(const std::uint8_t *data,
                                           std::size_t size);

} // namespace leca::bitstream

#endif // LECA_BITSTREAM_CODEC_HH
