/**
 * @file
 * Versioned, checksummed container (DESIGN.md §14): the framing
 * around every byte stream the sensor sends off-chip (codec.hh) and
 * every checkpoint the host saves (data/serialize.hh).
 *
 * Layout (all fields little-endian):
 *
 *   u32 magic 'LcBs' | u32 version | u32 kind | u32 nsections
 *   nsections × section descriptor (40 bytes):
 *       u32 id | u8 coder | u8 predictor | u16 aux
 *       u64 predStride | u64 rawLen | u64 encLen | u64 payload FNV-1a
 *   u64 header FNV-1a (over every byte after the magic word)
 *   concatenated payloads, in table order
 *
 * ContainerReader validates EVERYTHING up front — magic, version,
 * section count and descriptor ranges, exact total size, the header
 * checksum, and every per-section payload checksum — before handing
 * out a single payload pointer. Decoders built on top of it therefore
 * never index unvalidated bytes; tools/leca_lint.py's
 * bitstream-unvalidated-read rule enforces that raw reads in this
 * subsystem only appear behind such validation (marked
 * `leca-lint: bitstream-validated`). Any corruption — truncation at
 * any boundary, bit flips, oversized length fields — raises
 * leca::CheckError; reads past the buffer cannot happen.
 */

#ifndef LECA_BITSTREAM_CONTAINER_HH
#define LECA_BITSTREAM_CONTAINER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/fnv1a.hh"

namespace leca::bitstream {

/** Magic word opening every LeCA bitstream ("LcBs" in LE byte order). */
inline constexpr std::uint32_t kContainerMagic = 0x7342634CU;
/** Current container format version. */
inline constexpr std::uint32_t kContainerVersion = 1;
/** Upper bound on sections per container (corruption tripwire). */
inline constexpr std::uint32_t kMaxSections = 1024;
/** Upper bound on a single section's decoded size (tripwire: 1 GiB). */
inline constexpr std::uint64_t kMaxSectionRawLen = 1ULL << 30;

/** Container kinds: one number per format a container frames. */
inline constexpr std::uint32_t kKindByteStream = 3; //!< codes (codec.hh)
inline constexpr std::uint32_t kKindLayerState = 4; //!< fp32 checkpoint
inline constexpr std::uint32_t kKindQuantState = 5; //!< + int8 weights

/** Entropy-coding stage applied to a section's payload. */
enum class Coder : std::uint8_t {
    Raw = 0,     //!< payload is the decoded bytes verbatim
    Packed = 1,  //!< fixed-width bit packing; width in Section::aux
    Rans = 2,    //!< freq table + interleaved rANS stream (rans.hh)
};

/** Reversible modeling pass applied before the coder. */
enum class Predictor : std::uint8_t {
    None = 0,
    Delta = 1,  //!< byte[i] -= byte[i - predStride], mod 256
};

/** One logical payload inside a container (codes, scales, meta...). */
struct Section
{
    std::uint32_t id = 0;
    Coder coder = Coder::Raw;
    Predictor predictor = Predictor::None;
    std::uint16_t aux = 0;        //!< coder parameter (packed bit width)
    std::uint64_t predStride = 0; //!< delta distance in bytes
    std::uint64_t rawLen = 0;     //!< decoded payload length
    std::uint64_t encLen = 0;     //!< stored payload length
    std::uint64_t checksum = 0;   //!< FNV-1a over the stored payload
};

/** Accumulates sections, then emits the framed container bytes. */
class ContainerWriter
{
  public:
    explicit ContainerWriter(std::uint32_t kind) : _kind(kind) {}

    /** Append a section; @p payload is the already-coded bytes. */
    void addSection(std::uint32_t id, Coder coder, Predictor predictor,
                    std::uint16_t aux, std::uint64_t predStride,
                    std::uint64_t rawLen, std::vector<std::uint8_t> payload);

    /** Frame header + table + payloads; leaves the writer empty. */
    std::vector<std::uint8_t> finish();

  private:
    std::uint32_t _kind;
    std::vector<Section> _sections;
    std::vector<std::vector<std::uint8_t>> _payloads;
};

/**
 * Parses and fully validates a container over a borrowed buffer (the
 * buffer must outlive the reader). The constructor performs every
 * check; accessors after it are safe by construction.
 */
class ContainerReader
{
  public:
    ContainerReader(const std::uint8_t *data, std::size_t size);

    std::uint32_t kind() const { return _kind; }
    std::size_t sectionCount() const { return _sections.size(); }
    const Section &section(std::size_t i) const { return _sections[i]; }

    /** Validated payload bytes of section @p i (encLen of them). */
    const std::uint8_t *payload(std::size_t i) const
    {
        return _data + _offsets[i];
    }

    /** Section with @p id, or nullptr when absent. */
    const Section *findSection(std::uint32_t id) const;

  private:
    const std::uint8_t *_data;
    std::uint32_t _kind = 0;
    std::vector<Section> _sections;
    std::vector<std::size_t> _offsets;  //!< payload start per section
};

} // namespace leca::bitstream

#endif // LECA_BITSTREAM_CONTAINER_HH
