#include "jpeg.hh"

#include <algorithm>
#include <bit>

#include "util/check.hh"
#include "util/numeric.hh"

namespace leca {

namespace {

// Annex K luminance / chrominance quantization tables.
constexpr int kLumaTable[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,
    12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,
    14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,
    24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
};
constexpr int kChromaTable[64] = {
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
};

/** Bit category of a value (JPEG "size" field). */
int
category(int v)
{
    return std::bit_width(static_cast<unsigned>(std::abs(v)));
}

/** Entropy-model bit cost of one quantized coefficient block. */
long
blockBits(const int *coeffs, int prev_dc)
{
    // DC: difference category + average Huffman prefix (~3 bits).
    long bits = category(coeffs[0] - prev_dc) + 3;
    // AC: per nonzero coefficient, magnitude bits + ~6-bit run/size
    // prefix; one EOB symbol.
    for (int i = 1; i < 64; ++i)
        if (coeffs[i] != 0)
            bits += category(coeffs[i]) + 6;
    bits += 4; // EOB
    return bits;
}

/** Signed -> unsigned zig-zag map: small magnitudes stay small. */
std::uint32_t
zigzagEncode(int v)
{
    return (static_cast<std::uint32_t>(v) << 1)
           ^ static_cast<std::uint32_t>(v >> 31);
}

int
zigzagDecode(std::uint32_t u)
{
    return static_cast<int>((u >> 1) ^ (0u - (u & 1u)));
}

void
rgbToYcbcr(float r, float g, float b, float &y, float &cb, float &cr)
{
    y = 0.299f * r + 0.587f * g + 0.114f * b;
    cb = -0.168736f * r - 0.331264f * g + 0.5f * b + 0.5f;
    cr = 0.5f * r - 0.418688f * g - 0.081312f * b + 0.5f;
}

void
ycbcrToRgb(float y, float cb, float cr, float &r, float &g, float &b)
{
    const float cb0 = cb - 0.5f, cr0 = cr - 0.5f;
    r = y + 1.402f * cr0;
    g = y - 0.344136f * cb0 - 0.714136f * cr0;
    b = y + 1.772f * cb0;
}

} // namespace

JpegCodec::JpegCodec(int quality)
{
    LECA_CHECK(quality >= 1 && quality <= 100, "quality in [1,100]");
    // Standard IJG quality scaling.
    const int s = quality < 50 ? 5000 / quality : 200 - 2 * quality;
    for (int k = 0; k < 64; ++k) {
        const int luma = std::clamp((kLumaTable[k] * s + 50) / 100, 1, 255);
        const int chroma =
            std::clamp((kChromaTable[k] * s + 50) / 100, 1, 255);
        // Tables assume 8-bit samples; our signal lives in [0,1].
        _steps[0][k] = static_cast<float>(luma) / 255.0f;
        _steps[1][k] = static_cast<float>(chroma) / 255.0f;
    }
}

WireStream
JpegCodec::wireSymbols(const Tensor &batch)
{
    const int n = batch.size(0), h = batch.size(2), w = batch.size(3);
    LECA_CHECK(batch.size(1) == 3, "JPEG expects [N,3,H,W]");
    LECA_CHECK(h % 8 == 0 && w % 8 == 0, "JPEG needs 8x8 tiles");
    const std::size_t plane = static_cast<std::size_t>(h) * w;

    const auto encode_image = [&](int i, std::vector<std::uint8_t> &out) {
        const float *rgb = batch.data() + i * 3 * plane;
        std::vector<float> planes(3 * plane);
        for (std::size_t at = 0; at < plane; ++at)
            rgbToYcbcr(rgb[at], rgb[plane + at], rgb[2 * plane + at],
                       planes[at], planes[plane + at], planes[2 * plane + at]);
        out.reserve(3 * plane); // at least a byte per coefficient
        std::int64_t image_bits = 0;
        float block[64], coeffs[64];
        int quant[64];
        for (int pl = 0; pl < 3; ++pl) {
            const bool chroma = pl > 0;
            int prev_dc = 0;
            for (int by = 0; by < h / 8; ++by)
                for (int bx = 0; bx < w / 8; ++bx) {
                    forTile8(planes.data() + pl * plane, w, by, bx,
                             [&](float v, int k) { block[k] = v - 0.5f; });
                    _dct.forward(block, coeffs);
                    for (int k = 0; k < 64; ++k)
                        quant[k] = roundToInt(
                            coeffs[k] / quantStep(k / 8, k % 8, chroma));
                    image_bits += blockBits(quant, prev_dc);
                    appendVarint(out, zigzagEncode(quant[0] - prev_dc));
                    for (int k = 1; k < 64; ++k)
                        appendVarint(out, zigzagEncode(quant[kZigzag8[k]]));
                    prev_dc = quant[0];
                }
        }
        return image_bits;
    };
    WireStream ws;
    const std::int64_t bits = encodeImages(n, ws.symbols, encode_image);
    const double raw_bits = static_cast<double>(n) * 3 * h * w * 8;
    _lastRatio = raw_bits
                 / static_cast<double>(std::max<std::int64_t>(1, bits));
    ws.rawBits = 8.0 * static_cast<double>(ws.symbols.size());
    ws.predStride = 0;  // varint framing defeats positional prediction
    return ws;
}

Tensor
JpegCodec::decode(const WireStream &ws, const std::vector<int> &shape)
{
    const int n = shape[0], h = shape[2], w = shape[3];
    const std::size_t plane = static_cast<std::size_t>(h) * w;

    // Find where each image starts: it sends 3 * h * w varints, and a
    // varint ends at each byte below 0x80. The next `left` bytes hold at
    // most the `left` ends still due, so they are counted a span at once.
    std::vector<const std::uint8_t *> starts(n);
    const std::uint8_t *p = ws.symbols.data();
    for (const std::uint8_t *&start : starts) {
        start = p;
        for (std::size_t left = 3 * plane; left > 0;) {
            std::size_t ends = 0;
            for (std::size_t k = 0; k < left; ++k)
                ends += p[k] < 0x80;
            p += left;
            left -= ends;
        }
    }
    LECA_CHECK(p == ws.symbols.data() + ws.symbols.size(),
               "JPEG wire does not hold ", n, " images of ", h, "x", w);

    Tensor out(shape);
    forEachImage(n, [&](int i) {
        const std::uint8_t *code = starts[i];
        std::vector<float> planes(3 * plane);
        float block[64], coeffs[64];
        for (int pl = 0; pl < 3; ++pl) {
            const bool chroma = pl > 0;
            int prev_dc = 0;
            for (int by = 0; by < h / 8; ++by)
                for (int bx = 0; bx < w / 8; ++bx) {
                    for (int k = 0; k < 64; ++k) {
                        const int rm = kZigzag8[k];
                        int q = zigzagDecode(readVarint(code));
                        if (k == 0) {
                            q += prev_dc;
                            prev_dc = q;
                        }
                        coeffs[rm] = static_cast<float>(q)
                                     * quantStep(rm / 8, rm % 8, chroma);
                    }
                    _dct.inverse(coeffs, block);
                    forTile8(planes.data() + pl * plane, w, by, bx,
                             [&](float &v, int k) { v = block[k] + 0.5f; });
                }
        }
        float *rgb = out.data() + i * 3 * plane;
        for (std::size_t at = 0; at < plane; ++at)
            ycbcrToRgb(planes[at], planes[plane + at], planes[2 * plane + at],
                       rgb[at], rgb[plane + at], rgb[2 * plane + at]);
        for (std::size_t at = 0; at < 3 * plane; ++at)
            rgb[at] = std::clamp(rgb[at], 0.0f, 1.0f);
    });
    return out;
}

} // namespace leca
