#include "bitstream/codec.hh"

#include <array>
#include <cstring>
#include <utility>

#include "bitstream/bitio.hh"
#include "bitstream/container.hh"
#include "bitstream/rans.hh"
#include "util/check.hh"

namespace leca::bitstream {

namespace {

// The one section of a byte-stream container.
constexpr std::uint32_t kSecCodes = 2;

struct CodedSection
{
    Coder coder = Coder::Packed;
    Predictor predictor = Predictor::None;
    std::uint16_t aux = 0;
    std::uint64_t predStride = 0;
    std::vector<std::uint8_t> payload;
};

/** Bit-pack @p data at the width of its largest symbol (-> @p width). */
std::vector<std::uint8_t>
codePacked(const std::uint8_t *data, std::size_t n, std::uint16_t &width)
{
    std::uint8_t mx = 0;
    for (std::size_t i = 0; i < n; ++i)
        mx = data[i] > mx ? data[i] : mx;
    width = 0;
    while ((1u << width) <= mx)
        ++width;
    BitWriter bw;
    for (std::size_t i = 0; i < n; ++i)
        bw.put(data[i], width);
    return bw.finish();
}

/** Frequency table + interleaved rANS stream over @p data (n > 0). */
std::vector<std::uint8_t>
codeRans(const std::uint8_t *data, std::size_t n)
{
    std::array<std::uint64_t, 256> counts{};
    for (std::size_t i = 0; i < n; ++i)
        ++counts[data[i]];
    const RansFreqTable table = normalizeFreqs(counts, n);
    std::vector<std::uint8_t> payload;
    appendFreqTable(table, payload);
    ransEncode(data, n, table, payload);
    return payload;
}

/**
 * Pick predictor and coder for @p data deterministically: candidates
 * run in a fixed order (predictor None before Delta, coder Rans before
 * Packed) and only a STRICTLY smaller payload displaces the incumbent,
 * so ties always resolve to the earlier candidate. Packing never
 * exceeds the raw bytes (width <= 8), so no section is coded Raw.
 */
CodedSection
codeBytes(const std::uint8_t *data, std::size_t n, std::uint64_t stride)
{
    CodedSection best;
    bool have_best = false;
    const auto offer = [&](Coder coder, Predictor pred, std::uint16_t aux,
                           std::vector<std::uint8_t> payload) {
        if (have_best && payload.size() >= best.payload.size())
            return;
        best.coder = coder;
        best.predictor = pred;
        best.aux = aux;
        best.predStride = pred == Predictor::Delta ? stride : 0;
        best.payload = std::move(payload);
        have_best = true;
    };

    std::vector<std::uint8_t> residual;
    for (const Predictor pred : {Predictor::None, Predictor::Delta}) {
        const std::uint8_t *src = data;
        if (pred == Predictor::Delta) {
            if (stride == 0)
                break;
            residual.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                residual[i] = i < stride
                                  ? data[i]
                                  : static_cast<std::uint8_t>(
                                        data[i] - data[i - stride]);
            src = residual.data();
        }
        if (n > 0)  // an empty stream has no histogram to model
            offer(Coder::Rans, pred, 0, codeRans(src, n));
        std::uint16_t width = 0;
        std::vector<std::uint8_t> packed = codePacked(src, n, width);
        offer(Coder::Packed, pred, width, std::move(packed));
    }
    return best;
}

/** Decode one section's payload into @p out (exactly rawLen bytes). */
void
decodeSectionInto(const Section &s, const std::uint8_t *payload,
                  std::uint8_t *out)
{
    // ContainerReader has checked encLen against rawLen for the empty,
    // raw and packed cases.
    const std::size_t n = static_cast<std::size_t>(s.rawLen);
    if (n == 0)
        return; // no payload; keeps memcpy/BitReader away from null out
    switch (s.coder) {
    case Coder::Raw:
        // encLen == rawLen, validated by the reader.
        std::memcpy(out, payload, n);  // leca-lint: bitstream-validated
        break;
    case Coder::Packed: {
        const int width = s.aux;
        BitReader br(payload, static_cast<std::size_t>(s.encLen));
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<std::uint8_t>(br.get(width));
        // The encoder pads the last byte with zeros; anything else is
        // a symbol the section's rawLen disowns.
        const int pad = static_cast<int>(s.encLen * 8 - n * width);
        LECA_CHECK(br.get(pad) == 0, "corrupt bitstream: packed section ",
                   s.id, " has nonzero padding");
        break;
    }
    case Coder::Rans: {
        RansFreqTable table;
        const std::size_t used = parseFreqTable(
            payload, static_cast<std::size_t>(s.encLen), table);
        ransDecode(payload + used,
                   static_cast<std::size_t>(s.encLen) - used, table, out,
                   n);
        break;
    }
    }
    if (s.predictor == Predictor::Delta) {
        LECA_CHECK(s.predStride > 0,
                   "corrupt bitstream: delta section ", s.id,
                   " with stride 0");
        for (std::size_t i = static_cast<std::size_t>(s.predStride); i < n;
             ++i)
            out[i] = static_cast<std::uint8_t>(
                out[i] + out[i - static_cast<std::size_t>(s.predStride)]);
    } else {
        LECA_CHECK(s.predStride == 0,
                   "corrupt bitstream: predictor-less section ", s.id,
                   " carries stride ", s.predStride);
    }
}

} // namespace

std::vector<std::uint8_t>
encodeByteStream(const std::uint8_t *data, std::size_t n,
                 std::uint64_t predStride)
{
    LECA_CHECK(data != nullptr || n == 0,
               "encodeByteStream over null data of size ", n);
    CodedSection coded = codeBytes(data, n, predStride);
    ContainerWriter cw(kKindByteStream);
    cw.addSection(kSecCodes, coded.coder, coded.predictor, coded.aux,
                  coded.predStride, n, std::move(coded.payload));
    return cw.finish();
}

std::vector<std::uint8_t>
decodeByteStream(const std::uint8_t *data, std::size_t size)
{
    ContainerReader cr(data, size);
    LECA_CHECK(cr.kind() == kKindByteStream, "bitstream kind ", cr.kind(),
               " is not a byte stream (", kKindByteStream, ")");
    const Section *s = cr.findSection(kSecCodes);
    LECA_CHECK(s != nullptr, "corrupt bitstream: missing section ",
               kSecCodes);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(s->rawLen));
    for (std::size_t i = 0; i < cr.sectionCount(); ++i)
        if (cr.section(i).id == kSecCodes)
            decodeSectionInto(*s, cr.payload(i), out.data());
    return out;
}

} // namespace leca::bitstream
