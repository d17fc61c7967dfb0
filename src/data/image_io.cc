#include "image_io.hh"

#include <algorithm>
#include <fstream>
#include <limits>

#include "util/check.hh"

namespace leca {

namespace {

unsigned char
toByte(float v)
{
    const float clamped = std::clamp(v, 0.0f, 1.0f);
    return static_cast<unsigned char>(clamped * 255.0f + 0.5f);
}

} // namespace

void
writePpm(const Tensor &image, const std::string &path)
{
    LECA_CHECK(image.dim() == 3 && image.size(0) == 3,
                "writePpm expects [3,H,W]");
    const int h = image.size(1), w = image.size(2);
    std::ofstream os(path, std::ios::binary);
    LECA_CHECK(os.is_open(), "cannot open ", path, " for writing");
    os << "P6\n" << w << " " << h << "\n255\n";
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            for (int c = 0; c < 3; ++c) {
                const unsigned char b = toByte(image.at(c, y, x));
                os.write(reinterpret_cast<const char *>(&b), 1);
            }
        }
    }
    os.close();
    LECA_CHECK(!os.fail(), "cannot write ", path);
}

void
writePgm(const Tensor &image, const std::string &path, bool normalize)
{
    Tensor plane = image;
    if (plane.dim() == 3) {
        LECA_CHECK(plane.size(0) == 1, "writePgm expects one channel");
        plane = plane.reshape({plane.size(1), plane.size(2)});
    }
    LECA_CHECK(plane.dim() == 2, "writePgm expects [H,W]");
    const int h = plane.size(0), w = plane.size(1);

    float lo = 0.0f, hi = 1.0f;
    if (normalize) {
        lo = std::numeric_limits<float>::max();
        hi = std::numeric_limits<float>::lowest();
        for (std::size_t i = 0; i < plane.numel(); ++i) {
            lo = std::min(lo, plane[i]);
            hi = std::max(hi, plane[i]);
        }
        if (hi <= lo)
            hi = lo + 1.0f;
    }

    std::ofstream os(path, std::ios::binary);
    LECA_CHECK(os.is_open(), "cannot open ", path, " for writing");
    os << "P5\n" << w << " " << h << "\n255\n";
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float v = (plane.at(y, x) - lo) / (hi - lo);
            const unsigned char b = toByte(v);
            os.write(reinterpret_cast<const char *>(&b), 1);
        }
    }
    os.close();
    LECA_CHECK(!os.fail(), "cannot write ", path);
}

} // namespace leca
