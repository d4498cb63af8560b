/**
 * @file
 * Figure 15: PC3D vs ReQoS — utilization improvement factor (top)
 * and delivered co-runner QoS (bottom) per batch application,
 * averaged over the webservice co-runners, at QoS targets of 90%,
 * 95% and 98%.
 *
 * Paper headline: PC3D improves utilization by 1.25x / 1.45x / 1.52x
 * on average at the three targets (up to 2.84x), while both systems
 * meet the QoS targets. The footer checks that claim against the
 * rows: it lists every (target, system, batch) whose mean co-runner
 * QoS falls below its target.
 */

#include "common.h"

#include "datacenter/experiment.h"
#include "support/stats.h"

using namespace protean;

int
main(int argc, char **argv)
{
    bench::ObsConfig obs_cfg = bench::parseObsArgs(argc, argv);
    const std::vector<double> targets = {0.90, 0.95, 0.98};
    const char panel_u[] = {'a', 'b', 'c'};
    const char panel_q[] = {'d', 'e', 'f'};
    std::vector<std::string> missed;
    auto check_qos = [&](double target, const char *system,
                         const std::string &batch, double qos) {
        if (qos < target)
            missed.push_back(strformat(
                "%.0f%% target, %s, %s: %.1f%%", 100 * target, system,
                batch.c_str(), 100 * qos));
    };

    for (size_t k = 0; k < targets.size(); ++k) {
        double target = targets[k];
        TextTable tu(strformat(
            "Figure 15(%c): PC3D utilization improvement over ReQoS "
            "(%.0f%% QoS tgt)", panel_u[k], 100 * target));
        tu.setHeader({"Batch", "PC3D util", "ReQoS util",
                      "Improvement"});
        TextTable tq(strformat(
            "Figure 15(%c): avg co-runner QoS (%.0f%% QoS tgt)",
            panel_q[k], 100 * target));
        tq.setHeader({"Batch", "PC3D QoS", "ReQoS QoS"});

        std::vector<double> ratios;
        double best_ratio = 0.0;
        std::string best_app;
        for (const auto &batch : workloads::contentiousBatchNames()) {
            std::vector<double> pu, ru, pq, rq;
            for (const auto &service : workloads::webserviceNames()) {
                datacenter::ColoConfig cfg;
                cfg.service = service;
                cfg.batch = batch;
                cfg.qosTarget = target;
                cfg.qps = 120.0;
                cfg.settleMs = 4000.0;
                cfg.measureMs = 2000.0;
                cfg.system = datacenter::System::Pc3d;
                datacenter::ColoResult p =
                    datacenter::runColocation(cfg);
                cfg.system = datacenter::System::ReQos;
                datacenter::ColoResult r =
                    datacenter::runColocation(cfg);
                pu.push_back(p.utilization);
                ru.push_back(std::max(r.utilization, 1e-3));
                pq.push_back(p.qos);
                rq.push_back(r.qos);
            }
            double ratio = mean(pu) / mean(ru);
            ratios.push_back(ratio);
            if (ratio > best_ratio) {
                best_ratio = ratio;
                best_app = batch;
            }
            tu.addRow({batch, strformat("%.2f", mean(pu)),
                       strformat("%.2f", mean(ru)),
                       strformat("%.2fx", ratio)});
            tq.addRow({batch, strformat("%.0f%%", 100 * mean(pq)),
                       strformat("%.0f%%", 100 * mean(rq))});
            check_qos(target, "PC3D", batch, mean(pq));
            check_qos(target, "ReQoS", batch, mean(rq));
        }
        tu.addRow({"Mean", "", "",
                   strformat("%.2fx", mean(ratios))});
        tu.print();
        std::printf("max improvement: %.2fx (%s)\n\n", best_ratio,
                    best_app.c_str());
        tq.print();
        std::printf("\n");
    }
    std::printf("paper shape: mean improvement grows with target "
                "strictness (1.25x / 1.45x / 1.52x); ");
    if (missed.empty()) {
        std::printf("both systems meet QoS\n");
    } else {
        std::printf("mean QoS below target in %zu rows:\n",
                    missed.size());
        for (const std::string &m : missed)
            std::printf("  %s\n", m.c_str());
    }
    bench::exportObs(obs_cfg);
    return 0;
}
