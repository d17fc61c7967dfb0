#include "conv_transpose.hh"

#include "nn/init.hh"
#include "tensor/kernels.hh"
#include "util/arena.hh"
#include "util/check.hh"

namespace leca {

ConvTranspose2d::ConvTranspose2d(int cin, int cout, int k, int stride,
                                 bool bias, Rng &rng)
    : _cin(cin), _cout(cout), _k(k), _stride(stride), _hasBias(bias),
      _weight(Tensor({cin, cout, k, k})),
      _bias(Tensor({cout}))
{
    LECA_CHECK(cin > 0 && cout > 0 && k > 0 && stride > 0,
               "ConvTranspose2d config ", cin, " -> ", cout, " k=", k,
               " stride=", stride);
    kaimingInit(_weight.value, cin * k * k, rng);
}

Tensor
ConvTranspose2d::forward(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _cin, "ConvTranspose2d(", _cin,
               " -> ", _cout, ") input shape ",
               detail::formatShape(x.shape()));
    const int n = x.size(0), h = x.size(2), w = x.size(3);
    const ConvGeometry g = adjointGeometry(h, w);
    Tensor y({n, _cout, g.h, g.w});
    // y = col2im(Wᵀ · x): the adjoint conv's dX pass, then the bias.
    convBackwardData(g, n, x.data(), _weight.value.data(), y.data());
    if (_hasBias) {
        const std::int64_t ohow = static_cast<std::int64_t>(g.h) * g.w;
        float *py = y.data();
        for (int i = 0; i < n; ++i)
            for (int co = 0; co < _cout; ++co) {
                const float b = _bias.value[static_cast<std::size_t>(co)];
                float *dst =
                    py + (static_cast<std::int64_t>(i) * _cout + co) * ohow;
                for (std::int64_t p = 0; p < ohow; ++p)
                    dst[p] += b;
            }
    }
    if (mode == Mode::Train) {
        _inN = n;
        _inH = h;
        _inW = w;
        _fwdFrozen = frozen();
        if (!_fwdFrozen)
            _input = x;
    }
    return y;
}

Tensor
ConvTranspose2d::backward(const Tensor &grad_out)
{
    LECA_CHECK(_inN > 0, "ConvTranspose2d backward without cached forward");
    LECA_CHECK(frozen() == _fwdFrozen,
               "ConvTranspose2d frozen state changed between forward and "
               "backward");
    const int n = _inN, h = _inH, w = _inW;
    const ConvGeometry g = adjointGeometry(h, w);
    LECA_CHECK(grad_out.dim() == 4 && grad_out.size(0) == n
                   && grad_out.size(1) == _cout && grad_out.size(2) == g.h
                   && grad_out.size(3) == g.w,
               "ConvTranspose2d grad shape ",
               detail::formatShape(grad_out.shape()), " vs forward output [",
               n, ", ", _cout, ", ", g.h, ", ", g.w, "]");

    // dX = W · im2col(dY): the adjoint conv's forward pass.
    Tensor dx({n, _cin, h, w});
    convForward(g, n, grad_out.data(), _weight.value.data(), nullptr,
                dx.data());
    _inN = 0;
    if (_fwdFrozen)
        return dx;

    // dW = X · im2col(dY)ᵀ: the adjoint conv's dW pass, whose per-image
    // partials already have the [Cin, Cout*K*K] weight layout. They are
    // folded serially in ascending image order, as is db.
    const std::size_t wsz = static_cast<std::size_t>(_cin) * _cout * _k * _k;
    Arena::Scope scope;
    float *partials =
        Arena::local().alloc(static_cast<std::size_t>(n) * wsz);
    convBackwardWeights(g, n, grad_out.data(), _input.data(), false,
                        partials);
    Tensor dwmat({_cin, _cout * _k * _k});
    float *dwp = dwmat.data();
    const std::int64_t ohow = static_cast<std::int64_t>(g.h) * g.w;
    for (int i = 0; i < n; ++i) {
        const float *dw = partials + static_cast<std::size_t>(i) * wsz;
        for (std::size_t e = 0; e < wsz; ++e)
            dwp[e] += dw[e];
        if (_hasBias)
            for (int co = 0; co < _cout; ++co) {
                const float *dy = grad_out.data()
                                  + (static_cast<std::int64_t>(i) * _cout + co)
                                        * ohow;
                float acc = 0.0f;
                for (std::int64_t p = 0; p < ohow; ++p)
                    acc += dy[p];
                _bias.grad[static_cast<std::size_t>(co)] += acc;
            }
    }
    _weight.grad += dwmat.reshape({_cin, _cout, _k, _k});
    _input = Tensor();
    return dx;
}

std::vector<Param *>
ConvTranspose2d::params()
{
    if (_hasBias)
        return {&_weight, &_bias};
    return {&_weight};
}

} // namespace leca
