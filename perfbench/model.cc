#include <sys/resource.h>

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/pool.hh"
#include "workloads.hh"

namespace perfbench {

using namespace leca;

std::unique_ptr<LecaPipeline>
makePipeline(BackboneStyle style, const LecaConfig &config)
{
    Rng rng(3);
    auto backbone = makeBackbone(style, 3, kClasses, rng);
    LecaPipeline::Options options;
    options.leca = config;
    options.seed = 21;
    return std::make_unique<LecaPipeline>(options, std::move(backbone));
}

double
forwardFlopsPerImage(Sequential &net, int h, int w)
{
    double flops = 0.0;
    for (std::size_t i = 0; i < net.size(); ++i) {
        Layer &layer = net.at(i);
        if (auto *conv = dynamic_cast<Conv2d *>(&layer)) {
            h = (h + 2 * conv->pad() - conv->kernel()) / conv->stride() + 1;
            w = (w + 2 * conv->pad() - conv->kernel()) / conv->stride() + 1;
            flops += 2.0 * static_cast<double>(conv->weight().value.numel())
                     * h * w;
        } else if (auto *block = dynamic_cast<ResidualBlock *>(&layer)) {
            // Every conv of a block (both 3x3 convs and the 1x1
            // projection) writes at the block's output extent.
            int oh = 0, ow = 0;
            block->outShape(h, w, oh, ow);
            for (Param *p : block->params())
                if (p->value.dim() == 4)
                    flops += 2.0 * static_cast<double>(p->value.numel()) * oh
                             * ow;
            h = oh;
            w = ow;
        } else if (dynamic_cast<GlobalAvgPool *>(&layer)) {
            h = w = 1;
        } else if (auto *fc = dynamic_cast<Linear *>(&layer)) {
            flops += 2.0 * static_cast<double>(fc->weight().value.numel());
        }
    }
    return flops;
}

std::vector<std::string>
childNames(Sequential &net)
{
    std::vector<std::string> names;
    int blocks = 0;
    for (std::size_t i = 0; i < net.size(); ++i) {
        Layer &layer = net.at(i);
        if (dynamic_cast<Conv2d *>(&layer))
            names.push_back(i == 0 ? "stem" : "conv" + std::to_string(i));
        else if (dynamic_cast<BatchNorm2d *>(&layer))
            names.push_back("bn");
        else if (dynamic_cast<Relu *>(&layer))
            names.push_back("relu");
        else if (dynamic_cast<ResidualBlock *>(&layer))
            names.push_back("res" + std::to_string(++blocks));
        else if (dynamic_cast<GlobalAvgPool *>(&layer))
            names.push_back("gap");
        else if (dynamic_cast<Linear *>(&layer))
            names.push_back("fc");
        else
            names.push_back("layer" + std::to_string(i));
    }
    return names;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
