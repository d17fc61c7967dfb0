/**
 * @file
 * Reproduces the timing claims of Sec. 4.2 and Sec. 6.4: 209 fps at
 * 448x448 (Nch <= 4), repetitive-readout scaling for larger Nch, and
 * ~86 fps at 1080p — comfortably above 60 fps moving-object recording.
 */

#include <iostream>

#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "hw/controller.hh"
#include "hw/sensor_chip.hh"
#include "hw/timing.hh"
#include "hw/weights.hh"
#include "json_report.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

/** Wall-clock simulator throughput (not the analytic silicon model). */
void
measureSimulatorThroughput(leca::bench::JsonReport &report)
{
    using namespace leca;
    ChipConfig cfg;
    cfg.rgbHeight = 64;
    cfg.rgbWidth = 64;
    cfg.monteCarlo = false;
    LecaSensorChip chip(cfg);
    Rng wrng(8);
    Tensor w({4, 3, 2, 2});
    for (std::size_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(wrng.uniform(-1, 1));
    chip.loadKernels(flattenKernels(w, 1.0f));
    Tensor scene({3, 64, 64});
    for (std::size_t i = 0; i < scene.numel(); ++i)
        scene[i] = static_cast<float>(wrng.uniform(0.1, 0.9));
    Rng frame_rng(1);
    const double ms = bench::timeWallMs([&] {
        Tensor codes = chip.encodeFrame(scene, PeMode::Ideal, frame_rng,
                                        false);
    }, 5);
    report.add("sim_frame_encode_64", ms, "ms", bench::Better::Lower);
    std::cout << "\nsimulator wall-clock (64x64 ideal encode, "
              << threadCount() << " threads): "
              << Table::num(1000.0 / ms, 1) << " frames/s\n";
}

/**
 * End-to-end software-pipeline throughput: encoder -> decoder ->
 * backbone logits on one 64x64 RGB frame, in evaluation mode and as a
 * full training step (forward + backward + Adam).
 */
void
measurePipelineThroughput(leca::bench::JsonReport &report)
{
    using namespace leca;
    Rng rng(21);
    auto backbone = makeBackbone(BackboneStyle::Proxy, 3, 8, rng);
    LecaPipeline::Options options;
    options.seed = 5;
    LecaPipeline pipeline(options, std::move(backbone));

    Rng srng(22);
    Tensor frame({1, 3, 64, 64});
    for (std::size_t i = 0; i < frame.numel(); ++i)
        frame[i] = static_cast<float>(srng.uniform(0.1, 0.9));
    const std::vector<int> labels = {3};

    const double eval_ms = bench::timeWallMs([&] {
        Tensor logits = pipeline.forward(frame, Mode::Eval);
    }, 10);
    report.add("pipeline_frame_eval_64", eval_ms, "ms", bench::Better::Lower);

    Adam adam(pipeline.allParams(), 1e-3);
    SoftmaxCrossEntropy loss;
    const double train_ms = bench::timeWallMs([&] {
        adam.zeroGrad();
        Tensor logits = pipeline.forward(frame, Mode::Train);
        loss.forward(logits, labels);
        pipeline.backward(loss.backward());
        adam.step();
    }, 10);
    report.add("pipeline_frame_train_64", train_ms, "ms",
               bench::Better::Lower);

    std::cout << "software pipeline (64x64, " << threadCount()
              << " threads): " << Table::num(1000.0 / eval_ms, 1)
              << " eval frames/s, " << Table::num(1000.0 / train_ms, 1)
              << " train steps/s\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace leca;
    bench::JsonReport report(argc, argv);
    TimingModel timing;

    printBanner(std::cout,
                "Fig. 6(b): controller timing diagram (one 4-row band)");
    {
        BandScheduler scheduler;
        Table trace({"t_start (us)", "t_end (us)", "unit", "operation"});
        for (const auto &event : scheduler.schedule()) {
            trace.addRow({Table::num(event.startNs / 1000.0, 3),
                          Table::num(event.endNs / 1000.0, 3),
                          scheduleUnitName(event.unit), event.action});
        }
        trace.print(std::cout);
        std::cout << "16 MAC cycles @ 400 MHz need "
                  << Table::num(scheduler.macCyclesNs(), 0)
                  << " ns of the "
                  << Table::num(scheduler.config().macBurstNs, 0)
                  << " ns burst slot\n";
    }

    printBanner(std::cout, "Sec. 4.2: LeCA frame rate (row schedule)");
    std::cout << "band latency (4 rows + ofmap fetch): "
              << Table::num(timing.bandLatencyNs() / 1000.0, 2)
              << " us\n";
    std::cout << "local SRAM write hidden behind pixel readout: "
              << (timing.sramWriteHidden() ? "yes" : "NO") << "\n\n";

    Table table({"resolution", "Nch", "readout passes", "frame latency",
                 "fps", "paper"});
    struct Row { const char *name; int rows; int nch; const char *paper; };
    for (const auto &row :
         {Row{"448x448", 448, 4, "209 fps"},
          Row{"448x448", 448, 8, "(repetitive readout /2)"},
          Row{"448x448", 448, 12, "(repetitive readout /3)"},
          Row{"1080p (1080 rows)", 1080, 4, "86 fps"},
          Row{"1080p (1080 rows)", 1080, 8, "-"}}) {
        table.addRow({row.name, std::to_string(row.nch),
                      std::to_string((row.nch + 3) / 4),
                      Table::num(timing.frameLatencyUs(row.rows, row.nch)
                                     / 1000.0, 2) + " ms",
                      Table::num(
                          timing.framesPerSecond(row.rows, row.nch), 1),
                      row.paper});
    }
    table.print(std::cout);

    std::cout << "\nnormal (bypass) mode at 448x448: "
              << Table::num(1e6 / timing.normalFrameLatencyUs(448), 1)
              << " fps\n";
    std::cout << "1080p LeCA (Nch=4) sustains 60 fps moving-object "
                 "recording: "
              << (timing.framesPerSecond(1080, 4) >= 60.0 ? "yes" : "NO")
              << "\n";

    report.add("model_448_nch4_fps", timing.framesPerSecond(448, 4), "fps",
               bench::Better::Higher);
    report.add("model_1080p_nch4_fps", timing.framesPerSecond(1080, 4), "fps",
               bench::Better::Higher);
    measureSimulatorThroughput(report);
    measurePipelineThroughput(report);
    return 0;
}
