#include "bitstream/container.hh"

#include <cstring>
#include <utility>

#include "util/check.hh"

namespace leca::bitstream {

namespace {

constexpr std::size_t kHeaderBytes = 16;   // magic, version, kind, nsections
constexpr std::size_t kSectionBytes = 40;  // one table descriptor

void
appendU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/**
 * Little-endian loads over the header region. Callers bounds-check the
 * whole region before the first load (the constructor validates total
 * size up front), so these reads cannot leave the buffer.
 */
std::uint32_t
loadU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));  // leca-lint: bitstream-validated
    return v;
}

std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));  // leca-lint: bitstream-validated
    return v;
}

} // namespace

void
ContainerWriter::addSection(std::uint32_t id, Coder coder,
                            Predictor predictor, std::uint16_t aux,
                            std::uint64_t predStride, std::uint64_t rawLen,
                            std::vector<std::uint8_t> payload)
{
    LECA_CHECK(_sections.size() < kMaxSections, "container section count ",
               _sections.size() + 1, " exceeds limit ", kMaxSections);
    LECA_CHECK(rawLen <= kMaxSectionRawLen, "container section rawLen ",
               rawLen, " exceeds limit ", kMaxSectionRawLen);
    for (const Section &s : _sections)
        LECA_CHECK(s.id != id, "duplicate container section id ", id);
    Section s;
    s.id = id;
    s.coder = coder;
    s.predictor = predictor;
    s.aux = aux;
    s.predStride = predStride;
    s.rawLen = rawLen;
    s.encLen = payload.size();
    Fnv1a hash;
    hash.update(payload.data(), payload.size());
    s.checksum = hash.digest();
    _sections.push_back(s);
    _payloads.push_back(std::move(payload));
}

std::vector<std::uint8_t>
ContainerWriter::finish()
{
    std::vector<std::uint8_t> out;
    std::size_t total = kHeaderBytes + _sections.size() * kSectionBytes + 8;
    for (const auto &p : _payloads)
        total += p.size();
    out.reserve(total);
    appendU32(out, kContainerMagic);
    appendU32(out, kContainerVersion);
    appendU32(out, _kind);
    appendU32(out, static_cast<std::uint32_t>(_sections.size()));
    for (const Section &s : _sections) {
        appendU32(out, s.id);
        out.push_back(static_cast<std::uint8_t>(s.coder));
        out.push_back(static_cast<std::uint8_t>(s.predictor));
        out.push_back(static_cast<std::uint8_t>(s.aux & 0xFF));
        out.push_back(static_cast<std::uint8_t>(s.aux >> 8));
        appendU64(out, s.predStride);
        appendU64(out, s.rawLen);
        appendU64(out, s.encLen);
        appendU64(out, s.checksum);
    }
    Fnv1a header_hash;
    header_hash.update(out.data() + 4, out.size() - 4);
    appendU64(out, header_hash.digest());
    for (const auto &p : _payloads)
        out.insert(out.end(), p.begin(), p.end());
    _sections.clear();
    _payloads.clear();
    return out;
}

ContainerReader::ContainerReader(const std::uint8_t *data, std::size_t size)
    : _data(data)
{
    LECA_CHECK(data != nullptr || size == 0,
               "null bitstream of claimed size ", size);
    LECA_CHECK(size >= kHeaderBytes + 8,
               "corrupt bitstream: ", size, " bytes is shorter than the ",
               kHeaderBytes + 8, "-byte minimal container");
    const std::uint32_t magic = loadU32(data);
    LECA_CHECK(magic == kContainerMagic,
               "corrupt bitstream: bad magic word");
    const std::uint32_t version = loadU32(data + 4);
    LECA_CHECK(version == kContainerVersion,
               "unsupported bitstream version ", version, " (expected ",
               kContainerVersion, ")");
    _kind = loadU32(data + 8);
    const std::uint32_t nsections = loadU32(data + 12);
    LECA_CHECK(nsections <= kMaxSections,
               "corrupt bitstream: section count ", nsections,
               " exceeds limit ", kMaxSections);
    const std::size_t table_end =
        kHeaderBytes + static_cast<std::size_t>(nsections) * kSectionBytes;
    LECA_CHECK(size >= table_end + 8,
               "corrupt bitstream: truncated section table (", size,
               " bytes, need ", table_end + 8, ")");

    // The header checksum covers everything from the version word to
    // the end of the table; verify it before trusting any descriptor.
    Fnv1a header_hash;
    header_hash.update(data + 4, table_end - 4);
    const std::uint64_t stored_header = loadU64(data + table_end);
    LECA_CHECK(header_hash.digest() == stored_header,
               "corrupt bitstream: header checksum mismatch");

    _sections.reserve(nsections);
    _offsets.reserve(nsections);
    std::uint64_t payload_total = 0;
    for (std::uint32_t i = 0; i < nsections; ++i) {
        const std::uint8_t *d = data + kHeaderBytes + i * kSectionBytes;
        Section s;
        s.id = loadU32(d);
        const std::uint8_t coder = d[4];
        const std::uint8_t predictor = d[5];
        LECA_CHECK(coder <= static_cast<std::uint8_t>(Coder::Rans),
                   "corrupt bitstream: unknown coder ", int(coder),
                   " in section ", s.id);
        LECA_CHECK(predictor <= static_cast<std::uint8_t>(Predictor::Delta),
                   "corrupt bitstream: unknown predictor ", int(predictor),
                   " in section ", s.id);
        s.coder = static_cast<Coder>(coder);
        s.predictor = static_cast<Predictor>(predictor);
        s.aux = static_cast<std::uint16_t>(
            d[6] | (static_cast<std::uint16_t>(d[7]) << 8));
        s.predStride = loadU64(d + 8);
        s.rawLen = loadU64(d + 16);
        s.encLen = loadU64(d + 24);
        s.checksum = loadU64(d + 32);
        LECA_CHECK(s.rawLen <= kMaxSectionRawLen,
                   "corrupt bitstream: section ", s.id, " rawLen ",
                   s.rawLen, " exceeds limit ", kMaxSectionRawLen);
        LECA_CHECK(s.encLen <= size - table_end - 8,
                   "corrupt bitstream: section ", s.id, " encLen ",
                   s.encLen, " exceeds the container");
        // rawLen sizes the decoder's output, so bound it by encLen
        // wherever the coder fixes their ratio.
        if (s.rawLen == 0) {
            LECA_CHECK(s.encLen == 0, "corrupt bitstream: empty section ",
                       s.id, " stores ", s.encLen, " bytes");
        } else if (s.coder == Coder::Raw) {
            LECA_CHECK(s.encLen == s.rawLen, "corrupt bitstream: raw section ",
                       s.id, " stores ", s.encLen, " bytes for ", s.rawLen);
        } else if (s.coder == Coder::Packed) {
            LECA_CHECK(s.aux <= 8, "corrupt bitstream: packed width ",
                       s.aux, " in section ", s.id);
            const std::uint64_t need = (s.rawLen * s.aux + 7) / 8;
            LECA_CHECK(s.encLen == need, "corrupt bitstream: packed section ",
                       s.id, " stores ", s.encLen, " bytes, expected ", need);
        }
        for (const Section &prev : _sections)
            LECA_CHECK(prev.id != s.id,
                       "corrupt bitstream: duplicate section id ", s.id);
        payload_total += s.encLen;
        LECA_CHECK(payload_total <= size - table_end - 8,
                   "corrupt bitstream: payloads overflow the container");
        _sections.push_back(s);
    }
    const std::size_t payload_base = table_end + 8;
    LECA_CHECK(payload_base + payload_total == size,
               "corrupt bitstream: container is ", size, " bytes but the ",
               "table accounts for ", payload_base + payload_total);

    // Every descriptor is now trusted; verify each payload's checksum
    // before any accessor can hand the bytes to a decoder.
    std::size_t offset = payload_base;
    for (const Section &s : _sections) {
        Fnv1a hash;
        hash.update(data + offset, static_cast<std::size_t>(s.encLen));
        LECA_CHECK(hash.digest() == s.checksum,
                   "corrupt bitstream: payload checksum mismatch in "
                   "section ",
                   s.id);
        _offsets.push_back(offset);
        offset += static_cast<std::size_t>(s.encLen);
    }
}

const Section *
ContainerReader::findSection(std::uint32_t id) const
{
    for (const Section &s : _sections)
        if (s.id == id)
            return &s;
    return nullptr;
}

} // namespace leca::bitstream
