#include "bayer.hh"

#include "util/check.hh"

namespace leca {

Tensor
mosaic(const Tensor &rgb)
{
    LECA_CHECK(rgb.dim() == 3 && rgb.size(0) == 3, "mosaic expects [3,H,W]");
    const int h = rgb.size(1), w = rgb.size(2);
    Tensor raw({2 * h, 2 * w});
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            raw.at(2 * y, 2 * x) = rgb.at(0, y, x);         // R
            raw.at(2 * y, 2 * x + 1) = rgb.at(1, y, x);     // G
            raw.at(2 * y + 1, 2 * x) = rgb.at(1, y, x);     // G (dup)
            raw.at(2 * y + 1, 2 * x + 1) = rgb.at(2, y, x); // B
        }
    }
    return raw;
}

} // namespace leca
