/**
 * @file
 * The optimizer. The paper trains LeCA with Adam (Sec. 5.2), and so
 * does every trainer here, backbone pre-training included.
 *
 * Adam honours Param::frozen: frozen parameters are never updated. Their
 * layers still pass gradients through to upstream layers (so those can
 * learn) but compute no gradient for the frozen parameters themselves
 * (nn/param.hh), exactly reproducing the paper's frozen-backbone joint
 * training.
 */

#ifndef LECA_NN_OPTIMIZER_HH
#define LECA_NN_OPTIMIZER_HH

#include <vector>

#include "nn/param.hh"

namespace leca {

/** Adam (Kingma & Ba) with bias correction. */
class Adam
{
  public:
    Adam(std::vector<Param *> params, double lr, double beta1 = 0.9,
         double beta2 = 0.999, double eps = 1e-8);

    /** Apply one update from the accumulated gradients. */
    void step();

    /** Clear all gradient accumulators. */
    void zeroGrad();

    /** Change the learning rate (for decay schedules). */
    void setLearningRate(double lr) { _lr = lr; }
    double learningRate() const { return _lr; }

  private:
    std::vector<Param *> _params;
    double _lr;
    double _beta1, _beta2, _eps;
    long _t = 0;
    std::vector<Tensor> _m;
    std::vector<Tensor> _v;
};

} // namespace leca

#endif // LECA_NN_OPTIMIZER_HH
