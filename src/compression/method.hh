/**
 * @file
 * Common interface of every image compression method evaluated in the
 * paper (Sec. 5.1). A method encodes an RGB batch into the symbols its
 * sensor puts on the link, and decodes exactly those symbols into the
 * reconstruction a frozen downstream classifier sees; its compression
 * ratio follows the paper's bit-accounting.
 */

#ifndef LECA_COMPRESSION_METHOD_HH
#define LECA_COMPRESSION_METHOD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/quantize.hh"
#include "tensor/tensor.hh"
#include "util/check.hh"
#include "util/function_ref.hh"
#include "util/parallel.hh"

namespace leca {

/**
 * The symbol stream a compression method would actually put on the
 * wire for one batch, byte-serialized for the entropy coder
 * (leca::bitstream, bench/codec_corpus). `rawBits` is the fixed-rate
 * cost of shipping the symbols uncoded — the paper's element-count
 * accounting — against which entropy coding is measured. `predStride`
 * is the delta-predictor distance matching the stream's layout
 * (0 disables prediction); multi-byte symbols must fold it in.
 */
struct WireStream
{
    std::vector<std::uint8_t> symbols;
    double rawBits = 0.0;
    std::uint64_t predStride = 0;
};

/** Append @p v as an LEB128 varint (7 bits per byte, low bits first). */
inline void
appendVarint(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    out.push_back(static_cast<std::uint8_t>(v));
}

/** Read one LEB128 varint at @p p and advance @p p past it. */
inline std::uint32_t
readVarint(const std::uint8_t *&p)
{
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 7) {
        v |= static_cast<std::uint32_t>(*p & 0x7F) << shift;
        if (!(*p++ & 0x80))
            break;
    }
    return v;
}

/** Where a method's encoder runs (Table 1). */
enum class EncodingDomain { Analog, Digital, Mixed };

/** What a method optimizes for (Table 1). */
enum class Objective { TaskAgnostic, TaskSpecific };

/** Abstract compression baseline. */
class CompressionMethod
{
  public:
    virtual ~CompressionMethod() = default;

    /** Short display name (CNV, SD, LR, CS, MS, AGT, JPEG, LeCA). */
    virtual std::string name() const = 0;

    /** Nominal compression ratio of the current configuration. */
    virtual double compressionRatio() const = 0;

    /**
     * Encode + decode a batch [N,3,H,W] in [0,1]; the result has the
     * same shape and feeds the frozen downstream model. The host
     * rebuilds it from exactly the symbols the sensor sends.
     *
     * Non-virtual: enforces the interface contract (4-D RGB input,
     * shape-preserving output, sane compression ratio) around
     * decode(wireSymbols(batch)).
     */
    Tensor
    process(const Tensor &batch)
    {
        LECA_CHECK(batch.dim() == 4 && batch.size(1) == 3,
                   name(), " expects an [N,3,H,W] batch, got ",
                   detail::formatShape(batch.shape()));
        LECA_CHECK(batch.size(0) > 0 && batch.size(2) > 0
                       && batch.size(3) > 0,
                   name(), " given a degenerate batch ",
                   detail::formatShape(batch.shape()));
        Tensor result = decode(wireSymbols(batch), batch.shape());
        LECA_CHECK_SAME_SHAPE(result, batch);
        LECA_CHECK(compressionRatio() > 0.0, name(),
                   " reports non-positive compression ratio ",
                   compressionRatio());
        return result;
    }

    /**
     * The method's encoder: the symbols it transmits for @p batch
     * ([N,3,H,W] in [0,1]) — pixel codes, pooled samples, CS
     * measurements, transform coefficients or latent codes.
     */
    virtual WireStream wireSymbols(const Tensor &batch) = 0;

    /** Table 1 metadata. */
    virtual EncodingDomain domain() const = 0;
    virtual Objective objective() const = 0;
    virtual std::string qualityMetric() const { return "PSNR"; }
    virtual std::string hardwareOverhead() const = 0;

  protected:
    /** The method's decoder: the batch of @p shape @p ws encodes. */
    virtual Tensor decode(const WireStream &ws,
                          const std::vector<int> &shape) = 0;

    /**
     * Run @p fn(i) for every image i in [0, n) in parallel; images write
     * disjoint outputs, so results do not depend on LECA_THREADS.
     */
    static void
    forEachImage(int n, FunctionRef<void(int)> fn)
    {
        parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
            for (std::int64_t i = n0; i < n1; ++i)
                fn(static_cast<int>(i));
        });
    }

    /**
     * Fixed-rate wire of @p x: one @p qbits code per element on [lo, hi]
     * (delta-predicted one row back), encoded image by image.
     */
    static WireStream codeWire(const Tensor &x, float lo, float hi,
                               QBits qbits);

    /**
     * Variable-length wire: @p encode_image(i, out) appends image i's
     * symbols to a stream of its own and returns an integer tally;
     * images encode in parallel and their streams concatenate into
     * @p symbols in image order. Returns the summed tallies.
     */
    static std::int64_t encodeImages(
        int n, std::vector<std::uint8_t> &symbols,
        FunctionRef<std::int64_t(int, std::vector<std::uint8_t> &)>
            encode_image);

    /** The tensor of @p shape a codeWire() stream dequantizes to. */
    static Tensor codeValues(const WireStream &ws,
                             const std::vector<int> &shape, float lo,
                             float hi, QBits qbits);
};

} // namespace leca

#endif // LECA_COMPRESSION_METHOD_HH
