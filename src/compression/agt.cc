#include "agt.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/quantize.hh"
#include "util/check.hh"

namespace leca {

namespace {

/** Rebuild a row from its pairs at @p p into @p dst (null: skip it). */
const std::uint8_t *
decodeRow(const std::uint8_t *p, int width, float *dst)
{
    int prev_x = 0;
    float prev_v = 0.0f;
    do {
        const int x = prev_x + static_cast<int>(readVarint(p));
        const std::uint8_t code = *p++;
        if (dst) {
            const float v = dequantizeCode(code, 0.0f, 1.0f, 256);
            if (x == 0)
                dst[0] = v;
            // Linear interpolation between kept samples.
            for (int i = prev_x + 1; i <= x; ++i) {
                const float t = static_cast<float>(i - prev_x)
                                / static_cast<float>(x - prev_x);
                dst[i] = prev_v + t * (v - prev_v);
            }
            prev_v = v;
        }
        prev_x = x;
    } while (prev_x < width - 1);
    return p;
}

} // namespace

AccumGradientThreshold::AccumGradientThreshold(float threshold)
    : _threshold(threshold)
{
}

int
AccumGradientThreshold::encodeRow(const float *src, int width,
                                  std::vector<std::uint8_t> &out) const
{
    // The first and the last pixel are always kept (8-bit quantized).
    int kept = 0, prev_x = 0;
    float acc = 0.0f;
    for (int x = 0; x < width; ++x) {
        if (x > 0)
            acc += std::abs(src[x] - src[x - 1]);
        if (x == 0 || acc >= _threshold || x == width - 1) {
            appendVarint(out, static_cast<std::uint32_t>(x - prev_x));
            out.push_back(static_cast<std::uint8_t>(
                quantizeCode(src[x], 0.0f, 1.0f, 256)));
            prev_x = x;
            acc = 0.0f;
            ++kept;
        }
    }
    return kept;
}

WireStream
AccumGradientThreshold::wireSymbols(const Tensor &batch)
{
    const int n = batch.size(0), c = batch.size(1);
    const int h = batch.size(2), w = batch.size(3);
    const std::size_t row_count = static_cast<std::size_t>(c) * h;

    WireStream ws;
    const std::int64_t kept = encodeImages(
        n, ws.symbols, [&](int i, std::vector<std::uint8_t> &out) {
            out.reserve(row_count * w);
            std::int64_t image_kept = 0;
            const float *src = batch.data() + i * row_count * w;
            for (std::size_t row = 0; row < row_count; ++row, src += w)
                image_kept += encodeRow(src, w, out);
            return image_kept;
        });
    const std::int64_t total = static_cast<std::int64_t>(n) * c * h * w;
    _lastRatio = 1.0 / std::max(1e-9, static_cast<double>(kept)
                                          / static_cast<double>(total));
    ws.rawBits = 8.0 * static_cast<double>(kept);
    ws.predStride = 0;  // varint gaps defeat positional prediction
    return ws;
}

Tensor
AccumGradientThreshold::decode(const WireStream &ws,
                               const std::vector<int> &shape)
{
    const int n = shape[0], w = shape[3];
    const std::size_t row_count = shape[1] * shape[2];

    // Rows have no fixed width on the wire, so find where each image
    // starts before decoding the images in parallel.
    std::vector<const std::uint8_t *> starts(n);
    const std::uint8_t *p = ws.symbols.data();
    for (const std::uint8_t *&start : starts) {
        start = p;
        for (std::size_t row = 0; row < row_count; ++row)
            p = decodeRow(p, w, nullptr);
    }
    LECA_CHECK(p == ws.symbols.data() + ws.symbols.size(),
               "AGT wire does not hold ", n, " images");

    Tensor out(shape);
    forEachImage(n, [&](int i) {
        const std::uint8_t *row = starts[i];
        float *dst = out.data() + i * row_count * w;
        for (std::size_t r = 0; r < row_count; ++r, dst += w)
            row = decodeRow(row, w, dst);
    });
    return out;
}

void
AccumGradientThreshold::calibrate(const Tensor &calibration,
                                  double target_ratio)
{
    float lo = 0.0f, hi = 2.0f;
    for (int iter = 0; iter < 18; ++iter) {
        _threshold = 0.5f * (lo + hi);
        wireSymbols(calibration);
        if (_lastRatio < target_ratio) {
            lo = _threshold; // too many samples kept -> raise threshold
        } else {
            hi = _threshold;
        }
    }
}

} // namespace leca
