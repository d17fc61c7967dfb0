#include "zonal_dct.hh"

#include <algorithm>

#include "nn/quantize.hh"
#include "util/check.hh"

namespace leca {

ZonalDct::ZonalDct(int kept) : _kept(kept)
{
    LECA_CHECK(kept >= 1 && kept <= 64,
               "ZonalDct keeps 1..64 coefficients, got ", kept);
}

WireStream
ZonalDct::wireSymbols(const Tensor &batch)
{
    const int n = batch.size(0), c = batch.size(1);
    const int h = batch.size(2), w = batch.size(3);
    LECA_CHECK(h % 8 == 0 && w % 8 == 0, "DCT needs 8x8 tiles");
    const std::size_t per_image =
        static_cast<std::size_t>(c) * (h / 8) * (w / 8) * _kept;

    WireStream ws;
    ws.symbols.resize(n * per_image);
    forEachImage(n, [&](int i) {
        std::uint8_t *code = ws.symbols.data() + i * per_image;
        float block[64], coeffs[64];
        for (int ch = 0; ch < c; ++ch) {
            const float *plane =
                batch.data() + (static_cast<std::size_t>(i) * c + ch) * h * w;
            for (int by = 0; by < h / 8; ++by)
                for (int bx = 0; bx < w / 8; ++bx) {
                    forTile8(plane, w, by, bx, [&](float v, int k) {
                        block[k] = v - 0.5f;
                    });
                    _dct.forward(block, coeffs);
                    for (int k = 0; k < _kept; ++k)
                        *code++ = static_cast<std::uint8_t>(quantizeCode(
                            coeffs[kZigzag8[static_cast<std::size_t>(k)]],
                            -kCoeffRange, kCoeffRange, 256));
                }
        }
    });
    ws.rawBits = 8.0 * static_cast<double>(ws.symbols.size());
    // Delta against the same zig-zag position in the previous block.
    ws.predStride = static_cast<std::uint64_t>(_kept);
    return ws;
}

Tensor
ZonalDct::decode(const WireStream &ws, const std::vector<int> &shape)
{
    const int n = shape[0], c = shape[1], h = shape[2], w = shape[3];
    const std::size_t per_image = ws.symbols.size() / n;

    Tensor out(shape);
    forEachImage(n, [&](int i) {
        const std::uint8_t *code = ws.symbols.data() + i * per_image;
        float block[64], coeffs[64];
        for (int ch = 0; ch < c; ++ch) {
            float *plane =
                out.data() + (static_cast<std::size_t>(i) * c + ch) * h * w;
            for (int by = 0; by < h / 8; ++by)
                for (int bx = 0; bx < w / 8; ++bx) {
                    // Only the first `kept` zig-zag coefficients came.
                    std::fill(coeffs, coeffs + 64, 0.0f);
                    for (int k = 0; k < _kept; ++k)
                        coeffs[kZigzag8[static_cast<std::size_t>(k)]] =
                            dequantizeCode(*code++, -kCoeffRange,
                                           kCoeffRange, 256);
                    _dct.inverse(coeffs, block);
                    forTile8(plane, w, by, bx, [&](float &v, int k) {
                        v = std::clamp(block[k] + 0.5f, 0.0f, 1.0f);
                    });
                }
        }
    });
    return out;
}

} // namespace leca
