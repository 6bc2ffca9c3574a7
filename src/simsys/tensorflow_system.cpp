#include "simsys/tensorflow_system.hpp"

#include <algorithm>

#include "simsys/event_sim.hpp"

namespace intellog::simsys {

namespace {

TemplateCorpus build_tensorflow_corpus() {
  TemplateCorpus c("tensorflow");
  // --- process / cluster bring-up -------------------------------------------
  c.add("server.start", "INFO", "tensorflow.core.distributed_runtime.GrpcServer",
        "Started server with target {L}", {"server"}, {"start"});
  c.add("device.create", "INFO", "tensorflow.core.common_runtime.GpuDevice",
        "Creating TensorFlow device {L} with {V} MB memory", {"tensor flow device"},
        {"create"});
  c.add("channel.init", "INFO", "tensorflow.core.distributed_runtime.GrpcChannel",
        "Initializing channel cache for job {W} at {L}", {"channel cache", "job"},
        {"initialize"});
  // Clause-less prose: stays an Intel Key, yields no operation (§5/§6.2).
  c.add("session.init", "INFO", "tensorflow.core.distributed_runtime.MasterSession",
        "Session initialization complete for worker {I:WORKER}",
        {"session initialization", "worker"}, {});
  c.add("var.init", "INFO", "tensorflow.python.training.SessionManager",
        "Running local init op for variables", {"local init op", "variable"}, {"run"});
  c.add("queue.start", "INFO", "tensorflow.python.training.Coordinator",
        "Starting queue runners for input pipeline", {"queue runner", "input pipeline"},
        {"start"});
  c.add("ps.wait", "INFO", "tensorflow.python.training.SessionManager",
        "Waiting for model to be initialized by chief worker", {"model", "chief worker"},
        {"wait", "initialize"});

  // --- training loop -----------------------------------------------------------
  c.add("step.report", "INFO", "tensorflow.python.training.MonitoredSession",
        "Global step {I:STEP} completed with loss {V}", {"global step", "loss"}, {"complete"});
  c.add("examples.rate", "INFO", "tensorflow.python.training.MonitoredSession",
        "Processed {V} examples in {V} seconds", {"example"}, {"process"});
  c.add("step.kv", "INFO", "tensorflow.python.training.basic_session_run_hooks",
        "step={V} loss={V} lr={V}", {}, {}, /*natural_language=*/false);
  c.add("grad.aggregate", "INFO", "tensorflow.core.distributed_runtime.SyncReplicasOptimizer",
        "Aggregating gradients from {V} workers", {"gradient", "worker"}, {"aggregate"});
  c.add("ckpt.save", "INFO", "tensorflow.python.training.Saver",
        "Saving checkpoint to {L}", {"checkpoint"}, {"save"});
  c.add("ckpt.restore", "INFO", "tensorflow.python.training.Saver",
        "Restoring parameters from {L}", {"parameter"}, {"restore"});
  c.add("summary.write", "INFO", "tensorflow.python.summary.FileWriter",
        "Writing summaries for step {I:STEP} to {L}", {"summary", "step"}, {"write"});

  // --- shutdown ------------------------------------------------------------------
  c.add("coord.stop", "INFO", "tensorflow.python.training.Coordinator",
        "Coordinator stopped all queue runners", {"coordinator", "queue runner"}, {"stop"});
  c.add("session.close", "INFO", "tensorflow.core.distributed_runtime.MasterSession",
        "Closing session and releasing resources", {"session", "resource"},
        {"close", "release"});

  // --- anomaly-phase templates -----------------------------------------------
  c.add("ps.conn.fail", "ERROR", "tensorflow.core.distributed_runtime.GrpcChannel",
        "Failed to connect to parameter server at {L}", {"parameter server"},
        {"fail", "connect"});
  c.add("ps.conn.retry", "WARN", "tensorflow.core.distributed_runtime.GrpcChannel",
        "Retrying RPC to {L} in {V} ms", {"rpc"}, {"retry"});
  c.add("step.stall", "WARN", "tensorflow.python.training.MonitoredSession",
        "Training step {I:STEP} stalled for {V} seconds", {"training step"}, {"stall"});
  c.add("mem.spill", "WARN", "tensorflow.core.common_runtime.BFCAllocator",
        "Allocator ran out of memory, spilling tensors to host memory",
        {"allocator", "memory", "tensor"}, {"run", "spill"});
  return c;
}

}  // namespace

const TemplateCorpus& tensorflow_corpus() {
  static const TemplateCorpus corpus = build_tensorflow_corpus();
  return corpus;
}

JobResult TensorFlowJobSim::run(const JobSpec& spec, const ClusterSpec& cluster,
                                const FaultPlan& fault) const {
  JobResult result;
  result.spec = spec;
  result.fault = fault;

  common::Rng rng(spec.seed ^ 0x7466ULL);
  const TemplateCorpus& corpus = tensorflow_corpus();

  const int num_workers = std::clamp(2 + spec.input_gb / 4, 2, 12);
  const int num_ps = std::clamp(num_workers / 4, 1, 3);
  const int steps = std::max(10, spec.input_gb * 5);
  const bool spill_mode = !spec.memory_sufficient();

  const std::uint64_t job_start = 3600000ULL * (1 + rng.uniform(20));
  const std::uint64_t approx_span = 3000 + static_cast<std::uint64_t>(steps) * 120;
  const std::uint64_t fault_time =
      job_start + static_cast<std::uint64_t>(fault.at_fraction * static_cast<double>(approx_span));
  const std::string fault_host =
      fault.target_node >= 0 ? cluster.node_name(fault.target_node) : "";

  const int total = num_ps + num_workers;
  const int abort_victim =
      fault.kind == ProblemKind::SessionAbort ? static_cast<int>(rng.uniform(total)) : -1;
  // Parameter servers are pinned to the first nodes (a common deployment
  // convention); workers land anywhere.
  std::vector<int> placement(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    placement[static_cast<std::size_t>(i)] =
        i < num_ps ? i : static_cast<int>(rng.uniform(cluster.num_workers));
  }

  const auto container_id = [&](int i) {
    return "container_" + std::to_string(spec.seed % 100000) + "_04_" + std::to_string(i + 1);
  };
  const auto apply_faults = [&](SessionBuilder& b, int idx, bool& fault_affected) {
    const std::string node = cluster.node_name(placement[static_cast<std::size_t>(idx)]);
    const auto truncate_marking = [&](std::uint64_t cutoff) {
      const std::size_t before = b.record_count();
      b.truncate_after(cutoff);
      if (b.record_count() < before) fault_affected = true;
    };
    if (fault.kind == ProblemKind::SessionAbort && idx == abort_victim) {
      truncate_marking(job_start + (b.now() - job_start) / 2);
    }
    if (fault.kind == ProblemKind::NodeFailure && node == fault_host) {
      truncate_marking(fault_time);
    }
  };

  // ---- parameter servers ------------------------------------------------------
  for (int p = 0; p < num_ps; ++p) {
    const std::string node = cluster.node_name(placement[static_cast<std::size_t>(p)]);
    SessionBuilder b(corpus, container_id(p), node, job_start + rng.uniform(1500), rng.fork());
    bool fault_affected = false;
    b.emit("server.start", {"grpc://" + node + ":2222"});
    b.emit("device.create", {"/device:CPU:0", std::to_string(spec.container_memory_mb)});
    b.emit("channel.init", {"worker", "grpc://" + cluster.master_name() + ":2223"});
    b.emit("ps.wait", {});
    const int rounds = steps / 5;
    for (int s = 0; s < rounds; ++s) {
      b.emit("grad.aggregate", {std::to_string(num_workers)});
      b.advance(300, 900);
    }
    b.emit("session.close", {});
    apply_faults(b, p, fault_affected);
    if (fault_affected) result.affected_containers.insert(b.container_id());
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  }

  // ---- workers (worker 0 = chief) -----------------------------------------------
  for (int w = 0; w < num_workers; ++w) {
    const int idx = num_ps + w;
    const std::string node = cluster.node_name(placement[static_cast<std::size_t>(idx)]);
    SessionBuilder b(corpus, container_id(idx), node, job_start + 500 + rng.uniform(2500),
                     rng.fork());
    bool fault_affected = false, perf_affected = false;
    b.emit("server.start", {"grpc://" + node + ":2223"});
    b.emit("device.create", {"/device:CPU:0", std::to_string(spec.container_memory_mb)});
    for (int p = 0; p < num_ps; ++p) {
      b.emit("channel.init",
             {"ps", "grpc://" + cluster.node_name(placement[static_cast<std::size_t>(p)]) +
                        ":2222"});
    }
    if (w == 0) {
      b.emit("var.init", {});
      if (b.rng().chance(0.4)) b.emit("ckpt.restore", {"/train/model.ckpt-0"});
    } else {
      b.emit("ps.wait", {});
    }
    b.emit("session.init", {std::to_string(w)});
    b.emit("queue.start", {});

    const int my_steps = steps / num_workers + static_cast<int>(b.rng().uniform(6));
    for (int s = 0; s < my_steps; ++s) {
      const int step_no = s * num_workers + w;
      const std::string ps_node =
          cluster.node_name(placement[static_cast<std::size_t>(b.rng().uniform(num_ps))]);
      const bool fault_hit = (fault.kind == ProblemKind::NetworkFailure ||
                              fault.kind == ProblemKind::NodeFailure) &&
                             b.now() >= fault_time && ps_node == fault_host &&
                             node != fault_host;
      if (fault_hit) {
        for (int att = 0; att < 2; ++att) {
          b.emit("ps.conn.fail", {ps_node + ":2222"}, /*injected=*/true);
          b.emit("ps.conn.retry", {ps_node + ":2222", std::to_string(1000 * (att + 1))},
                 /*injected=*/true);
        }
        b.emit("step.stall", {std::to_string(step_no), std::to_string(30)}, /*injected=*/true);
        fault_affected = true;
      } else {
        b.emit("step.report",
               {std::to_string(step_no), std::to_string(1 + b.rng().uniform(4)) + "." +
                                             std::to_string(10 + b.rng().uniform(89))});
        if (b.rng().chance(0.6)) {
          b.emit("examples.rate", {std::to_string(500 + b.rng().uniform(2000)),
                                   std::to_string(1 + b.rng().uniform(5))});
        }
        if (b.rng().chance(0.4)) {
          b.emit("step.kv", {std::to_string(step_no), std::to_string(b.rng().uniform(300)),
                             std::to_string(b.rng().uniform(100))});
        }
        if (spill_mode && b.rng().chance(0.4)) {
          b.emit("mem.spill", {});
          perf_affected = true;
        }
        if (w == 0 && s > 0 && s % 8 == 0) {
          b.emit("ckpt.save", {"/train/model.ckpt-" + std::to_string(step_no)});
          b.emit("summary.write",
                 {std::to_string(step_no), "/train/events.out." + node});
        }
      }
      b.advance(60, 260);
    }
    b.emit("coord.stop", {});
    b.emit("session.close", {});
    apply_faults(b, idx, fault_affected);
    if (fault.kind == ProblemKind::NetworkFailure && node == fault_host) {
      const std::size_t before = b.record_count();
      b.truncate_after(fault_time + 2000);
      if (b.record_count() < before) fault_affected = true;
    }
    if (fault_affected) result.affected_containers.insert(b.container_id());
    if (perf_affected) result.perf_affected_containers.insert(b.container_id());
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  }
  return result;
}

}  // namespace intellog::simsys
