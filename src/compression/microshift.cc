#include "microshift.hh"

#include <algorithm>

#include "nn/quantize.hh"
#include "util/check.hh"

namespace leca {

namespace {

// Classic 4x4 ordered-dither index matrix; normalised it spreads the
// shifts uniformly over one quantizer step.
constexpr int kPattern[4][4] = {
    {0, 8, 2, 10},
    {12, 4, 14, 6},
    {3, 11, 1, 9},
    {15, 7, 13, 5},
};

} // namespace

Microshift::Microshift(int bits) : _bits(bits), _levels(1 << bits)
{
    LECA_CHECK(bits >= 1 && bits <= 4, "Microshift expects 1..4 bits");
}

float
Microshift::shiftAt(int y, int x) const
{
    // Centered fraction in (-0.5, 0.5) of one quantizer step.
    return (static_cast<float>(kPattern[y & 3][x & 3]) + 0.5f) / 16.0f
           - 0.5f;
}

WireStream
Microshift::wireSymbols(const Tensor &batch)
{
    const int n = batch.size(0), c = batch.size(1);
    const int h = batch.size(2), w = batch.size(3);
    const float step = 1.0f / static_cast<float>(_levels - 1);
    const std::size_t per_image = static_cast<std::size_t>(c) * h * w;

    WireStream ws;
    ws.symbols.resize(batch.numel());
    forEachImage(n, [&](int i) {
        const float *src = batch.data() + i * per_image;
        std::uint8_t *code = ws.symbols.data() + i * per_image;
        for (int ch = 0; ch < c; ++ch)
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x)
                    *code++ = static_cast<std::uint8_t>(quantizeCode(
                        *src++ + shiftAt(y, x) * step, 0.0f, 1.0f, _levels));
    });
    ws.rawBits = _bits * static_cast<double>(batch.numel());
    ws.predStride = static_cast<std::uint64_t>(w);
    return ws;
}

Tensor
Microshift::decode(const WireStream &ws, const std::vector<int> &shape)
{
    const int n = shape[0], c = shape[1], h = shape[2], w = shape[3];
    const float step = 1.0f / static_cast<float>(_levels - 1);

    Tensor dequant(shape), out(shape);
    forEachImage(n, [&](int i) {
        for (int ch = 0; ch < c; ++ch) {
            const std::size_t off =
                (static_cast<std::size_t>(i) * c + ch) * h * w;
            const std::uint8_t *code = ws.symbols.data() + off;
            float *dq = dequant.data() + off;
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x)
                    dq[y * w + x] = std::clamp(
                        dequantizeCode(*code++, 0.0f, 1.0f, _levels)
                            - shiftAt(y, x) * step,
                        0.0f, 1.0f);
            // Smoothing: neighbouring pixels carry different shifts, so
            // a local average recovers intermediate intensities.
            float *dst = out.data() + off;
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x) {
                    float acc = 0.0f;
                    int count = 0;
                    for (int yy = std::max(y - 1, 0);
                         yy <= std::min(y + 1, h - 1); ++yy)
                        for (int xx = std::max(x - 1, 0);
                             xx <= std::min(x + 1, w - 1); ++xx, ++count)
                            acc += dq[yy * w + xx];
                    const float smooth = acc / static_cast<float>(count);
                    dst[y * w + x] = 0.5f * dq[y * w + x] + 0.5f * smooth;
                }
        }
    });
    return out;
}

} // namespace leca
