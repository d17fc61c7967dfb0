#include "bayer.hh"

#include <cstdint>

#include "util/check.hh"

namespace leca {

Tensor
mosaic(const Tensor &rgb)
{
    LECA_CHECK(rgb.dim() == 3 && rgb.size(0) == 3, "mosaic expects [3,H,W]");
    const int h = rgb.size(1), w = rgb.size(2);
    Tensor raw({2 * h, 2 * w});
    const std::int64_t plane = static_cast<std::int64_t>(h) * w;
    const float *r = rgb.data();
    const float *g = r + plane;
    const float *b = g + plane;
    for (int y = 0; y < h; ++y) {
        float *top = raw.data() + static_cast<std::int64_t>(2 * y) * 2 * w;
        float *bottom = top + 2 * w;
        const std::int64_t row = static_cast<std::int64_t>(y) * w;
        for (int x = 0; x < w; ++x) {
            top[2 * x] = r[row + x];        // R
            top[2 * x + 1] = g[row + x];    // G
            bottom[2 * x] = g[row + x];     // G (dup)
            bottom[2 * x + 1] = b[row + x]; // B
        }
    }
    return raw;
}

} // namespace leca
