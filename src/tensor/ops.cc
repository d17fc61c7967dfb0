#include "ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels.hh"
#include "util/check.hh"
#include "util/numeric.hh"
#include "util/parallel.hh"

namespace leca {

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    LECA_CHECK(a.dim() == 2 && b.dim() == 2, "matmul expects matrices, got ranks ",
               a.dim(), " and ", b.dim());
    const int m = a.size(0), k = a.size(1), n = b.size(1);
    LECA_CHECK(b.size(0) == k, "matmul inner dims ", k, " vs ", b.size(0));
    Tensor c({m, n});
    gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false, c.data(),
                n, false);
    return c;
}

Tensor
matmulTransA(const Tensor &a, const Tensor &b)
{
    LECA_CHECK(a.dim() == 2 && b.dim() == 2, "matmulTransA expects matrices");
    const int k = a.size(0), m = a.size(1), n = b.size(1);
    LECA_CHECK(b.size(0) == k, "matmulTransA inner dims ", k, " vs ", b.size(0));
    Tensor c({m, n});
    gemmBlocked(m, n, k, a.data(), m, true, b.data(), n, false, c.data(),
                n, false);
    return c;
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    LECA_CHECK(a.dim() == 2 && b.dim() == 2, "matmulTransB expects matrices");
    const int m = a.size(0), k = a.size(1), n = b.size(0);
    LECA_CHECK(b.size(1) == k, "matmulTransB inner dims ", k, " vs ", b.size(1));
    Tensor c({m, n});
    gemmBlocked(m, n, k, a.data(), k, false, b.data(), k, true, c.data(),
                n, false);
    return c;
}

int
convOutSize(int in, int k, int stride, int pad)
{
    return (in + 2 * pad - k) / stride + 1;
}

Tensor
conv2d(const Tensor &x, const Tensor &weight, const Tensor &bias, int stride,
       int pad)
{
    LECA_CHECK(x.dim() == 4 && weight.dim() == 4, "conv2d shapes: input ",
               detail::formatShape(x.shape()), ", weight ",
               detail::formatShape(weight.shape()));
    const int n = x.size(0), cin = x.size(1), h = x.size(2), w = x.size(3);
    const int cout = weight.size(0), kh = weight.size(2), kw = weight.size(3);
    LECA_CHECK(weight.size(1) == cin, "conv2d channel mismatch: input has ",
               cin, ", weight expects ", weight.size(1));
    const ConvGeometry g{cin, h, w, cout, kh, kw, stride, pad};
    Tensor y({n, cout, g.oh(), g.ow()});
    convForward(g, n, x.data(), weight.data(),
                bias.numel() > 0 ? bias.data() : nullptr, y.data());
    return y;
}

Tensor
globalAvgPool(const Tensor &x)
{
    LECA_CHECK(x.dim() == 4, "globalAvgPool expects [N,C,H,W], got ",
               detail::formatShape(x.shape()));
    const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    Tensor y({n, c});
    const float inv = 1.0f / static_cast<float>(h * w);
    const float *px = x.data();
    float *py = y.data();
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t i = n0; i < n1; ++i) {
            for (std::int64_t ch = 0; ch < c; ++ch) {
                float acc = 0.0f;
                const float *src = px + (i * c + ch) * h * w;
                for (std::int64_t p = 0; p < static_cast<std::int64_t>(h) * w;
                     ++p)
                    acc += src[p];
                py[i * c + ch] = acc * inv;
            }
        }
    });
    return y;
}

Tensor
bilinearResize(const Tensor &x, int out_h, int out_w)
{
    LECA_CHECK(x.dim() == 4, "bilinearResize expects [N,C,H,W], got ",
               detail::formatShape(x.shape()));
    LECA_CHECK(out_h > 0 && out_w > 0, "bilinearResize target ", out_h, "x",
               out_w);
    const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    Tensor y({n, c, out_h, out_w});
    const float sy = static_cast<float>(h) / static_cast<float>(out_h);
    const float sx = static_cast<float>(w) / static_cast<float>(out_w);
    const float *px = x.data();
    float *py = y.data();
    // Flattened (image, channel) index so small batches still spread.
    parallelFor(0, static_cast<std::int64_t>(n) * c, 1,
                [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
            const float *plane = px + p * h * w;
            float *dplane = py + p * out_h * out_w;
            for (std::int64_t oy = 0; oy < out_h; ++oy) {
                // align_corners=false sample positions.
                float fy = (static_cast<float>(oy) + 0.5f) * sy - 0.5f;
                fy = std::clamp(fy, 0.0f, static_cast<float>(h - 1));
                const int y0 = truncToInt(fy);
                const int y1 = std::min(y0 + 1, h - 1);
                const float wy = fy - static_cast<float>(y0);
                const float *row0 = plane + static_cast<std::int64_t>(y0) * w;
                const float *row1 = plane + static_cast<std::int64_t>(y1) * w;
                float *drow = dplane + oy * out_w;
                for (std::int64_t ox = 0; ox < out_w; ++ox) {
                    float fx = (static_cast<float>(ox) + 0.5f) * sx - 0.5f;
                    fx = std::clamp(fx, 0.0f, static_cast<float>(w - 1));
                    const int x0 = truncToInt(fx);
                    const int x1 = std::min(x0 + 1, w - 1);
                    const float wx = fx - static_cast<float>(x0);
                    const float v00 = row0[x0];
                    const float v01 = row0[x1];
                    const float v10 = row1[x0];
                    const float v11 = row1[x1];
                    drow[ox] =
                        v00 * (1 - wy) * (1 - wx) + v01 * (1 - wy) * wx +
                        v10 * wy * (1 - wx) + v11 * wy * wx;
                }
            }
        }
    });
    return y;
}

Tensor
softmax(const Tensor &logits)
{
    LECA_CHECK(logits.dim() == 2, "softmax expects [N,K], got ",
               detail::formatShape(logits.shape()));
    const int n = logits.size(0), k = logits.size(1);
    Tensor p({n, k});
    const float *pl = logits.data();
    float *pp = p.data();
    const std::int64_t grain =
        std::max<std::int64_t>(1, (1 << 12) / std::max(1, k));
    parallelFor(0, n, grain, [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t i = n0; i < n1; ++i) {
            const float *lrow = pl + i * k;
            float *prow = pp + i * k;
            float mx = -std::numeric_limits<float>::infinity();
            for (std::int64_t j = 0; j < k; ++j)
                mx = std::max(mx, lrow[j]);
            float z = 0.0f;
            for (std::int64_t j = 0; j < k; ++j) {
                const float e = std::exp(lrow[j] - mx);
                prow[j] = e;
                z += e;
            }
            for (std::int64_t j = 0; j < k; ++j)
                prow[j] /= z;
        }
    });
    return p;
}

std::vector<int>
argmaxRows(const Tensor &m)
{
    LECA_CHECK(m.dim() == 2, "argmaxRows expects [N,K], got ",
               detail::formatShape(m.shape()));
    const int n = m.size(0), k = m.size(1);
    std::vector<int> out(static_cast<std::size_t>(n));
    const float *pm = m.data();
    for (std::int64_t i = 0; i < n; ++i) {
        const float *row = pm + i * k;
        int best = 0;
        for (int j = 1; j < k; ++j)
            if (row[j] > row[best])
                best = j;
        out[static_cast<std::size_t>(i)] = best;
    }
    return out;
}

double
mean(const Tensor &t)
{
    if (t.numel() == 0)
        return 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < t.numel(); ++i)
        acc += t[i];
    return acc / static_cast<double>(t.numel());
}

double
mse(const Tensor &a, const Tensor &b)
{
    LECA_CHECK_SAME_SHAPE(a, b);
    double acc = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        acc += d * d;
    }
    return acc / static_cast<double>(a.numel());
}

double
psnrDb(const Tensor &reference, const Tensor &test)
{
    const double err = mse(reference, test);
    if (err <= 0.0)
        return 99.0;
    return 10.0 * std::log10(1.0 / err);
}

} // namespace leca
