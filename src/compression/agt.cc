#include "agt.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/quantize.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

AccumGradientThreshold::AccumGradientThreshold(float threshold)
    : _threshold(threshold)
{
}

int
AccumGradientThreshold::processRow(const float *src, float *dst,
                                   int width) const
{
    // First pixel is always kept (8-bit quantized).
    std::vector<int> kept;
    kept.push_back(0);
    float last_kept = quantizeUniform(src[0], 0.0f, 1.0f, 256);
    float acc = 0.0f;
    for (int x = 1; x < width; ++x) {
        acc += std::abs(src[x] - src[x - 1]);
        if (acc >= _threshold || x == width - 1) {
            kept.push_back(x);
            acc = 0.0f;
        }
    }
    // Linear interpolation between kept samples.
    float prev_v = last_kept;
    int prev_x = 0;
    dst[0] = prev_v;
    for (std::size_t k = 1; k < kept.size(); ++k) {
        const int x = kept[k];
        const float v = quantizeUniform(src[x], 0.0f, 1.0f, 256);
        for (int i = prev_x + 1; i <= x; ++i) {
            const float t = static_cast<float>(i - prev_x)
                            / static_cast<float>(x - prev_x);
            dst[i] = prev_v + t * (v - prev_v);
        }
        prev_v = v;
        prev_x = x;
    }
    return static_cast<int>(kept.size());
}

Tensor
AccumGradientThreshold::processImpl(const Tensor &batch)
{
    LECA_CHECK(batch.dim() == 4, "AGT expects [N,C,H,W]");
    const int n = batch.size(0), c = batch.size(1);
    const int h = batch.size(2), w = batch.size(3);
    Tensor out(batch.shape());
    // Rows are independent; kept-sample counts are integers, so the
    // per-image partial sums below are order-insensitive.
    std::vector<std::int64_t> kept_per_image(static_cast<std::size_t>(n), 0);
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (int i = static_cast<int>(n0); i < n1; ++i) {
            std::int64_t image_kept = 0;
            for (int ch = 0; ch < c; ++ch)
                for (int y = 0; y < h; ++y) {
                    const float *src =
                        batch.data()
                        + ((static_cast<std::size_t>(i) * c + ch) * h + y)
                              * w;
                    float *dst =
                        out.data()
                        + ((static_cast<std::size_t>(i) * c + ch) * h + y)
                              * w;
                    image_kept += processRow(src, dst, w);
                }
            kept_per_image[static_cast<std::size_t>(i)] = image_kept;
        }
    });
    std::int64_t kept = 0;
    for (std::int64_t image_kept : kept_per_image)
        kept += image_kept;
    const std::int64_t total = static_cast<std::int64_t>(n) * c * h * w;
    _lastRatio = 1.0 / std::max(1e-9, static_cast<double>(kept)
                                          / static_cast<double>(total));
    return out;
}

void
AccumGradientThreshold::calibrate(const Tensor &calibration,
                                  double target_ratio)
{
    float lo = 0.0f, hi = 2.0f;
    for (int iter = 0; iter < 18; ++iter) {
        _threshold = 0.5f * (lo + hi);
        process(calibration);
        if (_lastRatio < target_ratio) {
            lo = _threshold; // too many samples kept -> raise threshold
        } else {
            hi = _threshold;
        }
    }
}

} // namespace leca
