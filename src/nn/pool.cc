#include "pool.hh"

#include "tensor/ops.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

Tensor
Flatten::forward(const Tensor &x, Mode mode)
{
    (void)mode;
    LECA_CHECK(x.dim() >= 2, "Flatten expects rank >= 2, got ",
               detail::formatShape(x.shape()));
    _inShape = x.shape();
    return x.reshape({x.size(0), -1});
}

Tensor
Flatten::backward(const Tensor &grad_out)
{
    LECA_CHECK(!_inShape.empty(), "Flatten backward without forward");
    return grad_out.reshape(_inShape);
}

Tensor
GlobalAvgPool::forward(const Tensor &x, Mode mode)
{
    (void)mode;
    _inShape = x.shape();
    return globalAvgPool(x);
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_out)
{
    LECA_CHECK(!_inShape.empty(), "GlobalAvgPool backward without forward");
    const int n = _inShape[0], c = _inShape[1];
    const int h = _inShape[2], w = _inShape[3];
    const float inv = 1.0f / static_cast<float>(h * w);
    Tensor dx(_inShape);
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (int i = static_cast<int>(n0); i < n1; ++i)
            for (int ch = 0; ch < c; ++ch) {
                const float g =
                    grad_out.data()[static_cast<std::size_t>(i) * c + ch]
                    * inv;
                float *dst = dx.data()
                    + (static_cast<std::size_t>(i) * c + ch)
                      * static_cast<std::size_t>(h) * w;
                for (int p = 0; p < h * w; ++p)
                    dst[p] = g;
            }
    });
    return dx;
}

} // namespace leca
