#include "optimizer.hh"

#include <cmath>
#include <cstdint>

#include "util/parallel.hh"

namespace leca {

Adam::Adam(std::vector<Param *> params, double lr, double beta1,
           double beta2, double eps)
    : _params(std::move(params)), _lr(lr), _beta1(beta1), _beta2(beta2),
      _eps(eps)
{
    _m.reserve(_params.size());
    _v.reserve(_params.size());
    for (Param *p : _params) {
        _m.emplace_back(Tensor::zeros(p->value.shape()));
        _v.emplace_back(Tensor::zeros(p->value.shape()));
    }
}

void
Adam::zeroGrad()
{
    for (Param *p : _params)
        p->zeroGrad();
}

void
Adam::step()
{
    ++_t;
    const double bc1 = 1.0 - std::pow(_beta1, static_cast<double>(_t));
    const double bc2 = 1.0 - std::pow(_beta2, static_cast<double>(_t));
    for (std::size_t pi = 0; pi < _params.size(); ++pi) {
        Param *p = _params[pi];
        if (p->frozen)
            continue;
        Tensor &m = _m[pi];
        Tensor &v = _v[pi];
        const float *gp = p->grad.data();
        float *mp = m.data();
        float *vp = v.data();
        float *valp = p->value.data();
        // Elements update independently, so the parallel split cannot
        // change any result bit. The per-element double math is exactly
        // the original serial expression.
        parallelFor(0, static_cast<std::int64_t>(p->value.numel()), 4096,
                    [&](std::int64_t i0, std::int64_t i1) {
                        for (std::int64_t i = i0; i < i1; ++i) {
                            const double g = gp[i];
                            mp[i] = static_cast<float>(
                                _beta1 * mp[i] + (1.0 - _beta1) * g);
                            vp[i] = static_cast<float>(
                                _beta2 * vp[i] + (1.0 - _beta2) * g * g);
                            const double mhat = mp[i] / bc1;
                            const double vhat = vp[i] / bc2;
                            valp[i] -= static_cast<float>(
                                _lr * mhat / (std::sqrt(vhat) + _eps));
                        }
                    });
    }
}

} // namespace leca
