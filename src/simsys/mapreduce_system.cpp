#include "simsys/mapreduce_system.hpp"

#include <algorithm>
#include <functional>

#include "simsys/event_sim.hpp"

namespace intellog::simsys {

namespace {

TemplateCorpus build_mapreduce_corpus() {
  TemplateCorpus c("mapreduce");
  // --- MRAppMaster ---------------------------------------------------------
  c.add("am.created", "INFO", "mapreduce.v2.app.MRAppMaster",
        "Created MRAppMaster for application {I:APP}", {"mr app master", "application"},
        {"create"});
  c.add("am.job.transition", "INFO", "mapreduce.v2.app.job.impl.JobImpl",
        "Job {I:JOB} transitioned from {W} to {W}", {"job"}, {"transition"});
  c.add("am.launch", "INFO", "mapreduce.v2.app.launcher.ContainerLauncherImpl",
        "Launched container {I:CONTAINER} for task attempt {I:ATTEMPT}",
        {"container", "task attempt"}, {"launch"});
  c.add("am.task.transition", "INFO", "mapreduce.v2.app.job.impl.TaskAttemptImpl",
        "Task attempt {I:ATTEMPT} transitioned from {W} to {W}", {"task attempt"},
        {"transition"});
  c.add("am.task.succeeded", "INFO", "mapreduce.v2.app.job.impl.TaskImpl",
        "Task succeeded with attempt {I:ATTEMPT}", {"task", "attempt"}, {"succeed"});
  c.add("am.num.completed", "INFO", "mapreduce.v2.app.rm.RMContainerAllocator",
        "numCompletedTasks={V} numScheduledMaps={V} numScheduledReduces={V}", {}, {},
        /*natural_language=*/false);
  c.add("am.resources", "INFO", "mapreduce.v2.app.rm.RMContainerAllocator",
        "headroom memory={V} vCores={V}", {}, {}, /*natural_language=*/false);
  c.add("am.staging.delete", "INFO", "mapreduce.v2.app.MRAppMaster",
        "Deleting staging directory {L}", {"directory"}, {"delete"});
  c.add("am.node.lost", "ERROR", "mapreduce.v2.app.rm.RMContainerAllocator",
        "Lost node {L}: removing all pending containers", {"node", "container"},
        {"lose", "remove"});
  c.add("am.fetch.failures", "WARN", "mapreduce.v2.app.job.impl.JobImpl",
        "Too many fetch failures for attempt {I:ATTEMPT}, failing the task attempt",
        {"fetch failure", "task attempt"}, {"fail"});

  // --- mapper containers -----------------------------------------------------
  // "Starting ..." / "Stopping ..." share the Spell key "* MapTask metrics
  // system" — the paper's Fig. 3 example. The 4-word entity is a deliberate
  // false-negative source (§6.2: FNs come from 4+-word phrases).
  c.add("map.metrics.start", "INFO", "metrics2.impl.MetricsSystemImpl",
        "Starting MapTask metrics system", {"map task metrics system"}, {"start"});
  c.add("map.metrics.stop", "INFO", "metrics2.impl.MetricsSystemImpl",
        "Stopping MapTask metrics system", {"map task metrics system"}, {"stop"});
  c.add("map.metrics.snapshot", "INFO", "metrics2.impl.MetricsSystemImpl",
        "Scheduled snapshot period at {V} seconds", {"snapshot period"}, {"schedule"});
  c.add("map.split", "INFO", "mapred.MapTask",
        "Processing split: {L}", {"split"}, {"process"});
  c.add("map.collector", "INFO", "mapred.MapTask",
        "mapOutputCollectorClass={W} sortSpillPercent={V}", {}, {},
        /*natural_language=*/false);
  c.add("map.spill.finished", "INFO", "mapred.MapTask",
        "Finished spill {I:SPILL}", {"spill"}, {"finish"});
  c.add("map.flush", "INFO", "mapred.MapTask",
        "Starting flush of map output", {"map output"}, {"start"});
  c.add("map.done", "INFO", "mapred.Task",
        "Task {I:ATTEMPT} is done. And is in the process of committing", {"task", "process"},
        {"do", "commit"});
  c.add("map.commit.allowed", "INFO", "mapred.Task",
        "Task attempt {I:ATTEMPT} is allowed to commit now", {"task attempt"},
        {"allow", "commit"});
  c.add("map.output.saved", "INFO", "output.FileOutputCommitter",
        "Saved output of task {I:ATTEMPT} to {L}", {"output of task"}, {"save"});

  // --- reducer containers -----------------------------------------------------
  c.add("red.plugin", "INFO", "mapred.ReduceTask",
        "Using ShuffleConsumerPlugin: {W}", {"shuffle consumer plugin"}, {"use"});
  c.add("red.eventfetcher", "INFO", "reduce.EventFetcher",
        "EventFetcher thread started for {I:ATTEMPT}", {"event fetcher thread"}, {"start"});
  // Fig. 1 subroutine: about-to-shuffle -> read bytes -> host freed.
  c.add("red.fetch.about", "INFO", "reduce.Fetcher",
        "fetcher # {I:FETCHER} about to shuffle output of map {I:ATTEMPT}",
        {"fetcher", "output of map"}, {"shuffle"});
  c.add("red.fetch.read", "INFO", "reduce.Fetcher",
        "[fetcher # {I:FETCHER}] read {V} bytes from map-output for {I:ATTEMPT}",
        {"fetcher", "map-output"}, {"read"});
  c.add("red.fetch.freed", "INFO", "reduce.Fetcher",
        "{L} freed by fetcher # {I:FETCHER} in {V} ms", {"fetcher"}, {"free"});
  c.add("red.map.completed", "INFO", "reduce.ShuffleSchedulerImpl",
        "map {I:ATTEMPT} completed successfully", {"map"}, {"complete"});
  c.add("red.merge.segments", "INFO", "mapred.Merger",
        "Merging {V} sorted segments", {"segment"}, {"merge"});
  // Nominal sentence, no predicate: the paper's missed-operation example.
  c.add("red.merge.last", "INFO", "mapred.Merger",
        "Down to the last merge-pass, with {V} segments left of total size: {V} bytes",
        {"last merge-pass", "segment", "total size"}, {"merge"});
  c.add("red.merge.inmem", "INFO", "reduce.MergeManagerImpl",
        "Initiating in-memory merge with {V} segments", {"in-memory merge", "segment"},
        {"initiate"});
  c.add("red.phase", "INFO", "mapred.ReduceTask",
        "Starting reduce phase", {"reduce phase"}, {"start"});
  // Clause-less prose line that real MapReduce logs: counts as non-NL.
  c.add("red.executor.complete", "INFO", "mapred.ReduceTask",
        "reduce task executor complete.", {"reduce task executor"}, {},
        /*natural_language=*/false);

  // --- additional templates ---------------------------------------------------
  c.add("am.recovery", "INFO", "mapreduce.v2.app.MRAppMaster",
        "Recovery is enabled for this application", {"recovery", "application"}, {"enable"});
  c.add("am.committer", "INFO", "mapreduce.v2.app.MRAppMaster",
        "OutputCommitter set in configuration: {W}",
        {"output committer", "configuration", "file output committer"}, {"set"});
  c.add("am.token", "INFO", "mapreduce.v2.app.MRAppMaster",
        "Adding delegation token for {W}", {"delegation token"}, {"add"});
  // "is" is a copula, not an operation: no predicate to extract.
  c.add("am.progress", "INFO", "mapreduce.v2.app.job.impl.TaskAttemptImpl",
        "Progress of attempt {I:ATTEMPT} is : {V}", {"progress of attempt"}, {});
  c.add("map.records", "INFO", "mapred.MapTask",
        "Processing {V} input records from split", {"input record", "split"}, {"process"});
  c.add("map.softlimit", "INFO", "mapred.MapTask",
        "Soft limit at {V} bytes", {"soft limit"}, {}, /*natural_language=*/false);
  c.add("map.kvbuffer", "INFO", "mapred.MapTask",
        "kvstart = {V}; kvend = {V}; length = {V}", {}, {}, /*natural_language=*/false);
  c.add("map.committer.class", "INFO", "mapred.Task",
        "Using output committer class {W}", {"output committer class"}, {"use"});
  c.add("red.merge.thread", "INFO", "reduce.MergeManagerImpl",
        "Starting thread to merge on-disk files", {"thread", "on-disk file"},
        {"start", "merge"});
  c.add("red.merge.satisfy", "INFO", "mapred.Merger",
        "Merged {V} segments, {V} bytes to disk to satisfy reduce memory limit",
        {"segment", "disk", "reduce memory limit"}, {"merge", "satisfy"});
  c.add("red.fetch.schedule", "INFO", "reduce.ShuffleSchedulerImpl",
        "Scheduling fetch of {V} outputs from {L}", {"fetch", "output"}, {"schedule"});
  // 4-word entity -> deliberate FN source (§6.2).
  c.add("red.events.sleep", "INFO", "reduce.EventFetcher",
        "GetMapEventsThread about to sleep for {V} ms", {"get map events thread"}, {"sleep"});
  c.add("task.commit.go", "INFO", "mapred.Task",
        "attempt {I:ATTEMPT} given a go for committing the task output", {"task output"},
        {"give", "commit"});
  c.add("map.jvm.metrics", "INFO", "jvm.JvmMetrics",
        "Initializing JVM Metrics for session {I:SESSION}", {"jvm metrics", "session"},
        {"initialize"});
  // 4-word entity -> FN source.
  c.add("map.calculator", "INFO", "mapred.Task",
        "Using ResourceCalculatorProcessTree to measure usage",
        {"resource calculator process tree", "usage"}, {"use", "measure"});
  c.add("map.numreduces", "INFO", "mapred.MapTask",
        "numReduceTasks: {V}", {}, {}, /*natural_language=*/false);
  c.add("map.sort.buffer", "INFO", "mapred.MapTask",
        "Sorting map output buffer before spill", {"map output buffer", "spill"}, {"sort"});
  c.add("map.report", "INFO", "mapred.Task",
        "Reporting progress to application master", {"progress", "application master"},
        {"report"});
  c.add("red.fetch.assign", "INFO", "reduce.ShuffleSchedulerImpl",
        "Assigning {L} with {V} outputs to fetcher # {I:FETCHER}", {"output", "fetcher"},
        {"assign"});
  c.add("red.fetch.verify", "INFO", "reduce.Fetcher",
        "Verifying request for map {I:ATTEMPT}", {"request", "map"}, {"verify"});
  c.add("red.inmem.shuffle", "INFO", "reduce.InMemoryMapOutput",
        "Shuffling {V} bytes into in-memory merge buffer", {"in-memory merge buffer"},
        {"shuffle"});
  c.add("red.ondisk.move", "INFO", "reduce.MergeManagerImpl",
        "Moving map output to on-disk merge queue", {"map output", "on-disk merge queue"},
        {"move"});
  c.add("red.fetch.rate", "INFO", "reduce.Fetcher",
        "Fetched {V} bytes from map {I:ATTEMPT} at {V} KB per second", {"map"}, {"fetch"});
  // One-off child-JVM setup lines (order varies run to run).
  c.add("child.tokens", "INFO", "mapred.YarnChild",
        "Executing with tokens for job {I:JOB}", {"token", "job"}, {"execute"});
  c.add("child.sleep.conf", "INFO", "mapred.YarnChild",
        "Sleeping for {V} ms before retrying again", {}, {"sleep", "retry"});
  c.add("child.symlink", "INFO", "mapred.YarnChild",
        "Creating symlink {L} for localized file", {"symlink", "file"}, {"create"});
  c.add("child.workdir", "INFO", "mapred.YarnChild",
        "Configuring job with working directory {L}", {"job", "directory"}, {"configure"});
  c.add("child.ugi", "INFO", "mapred.YarnChild",
        "Running child with user {W}", {"child", "user"}, {"run"});
  c.add("child.limits", "INFO", "mapred.YarnChild",
        "Checking resource limits for container", {"resource limit", "container"}, {"check"});
  c.add("child.deprecation", "WARN", "conf.Configuration",
        "Configuration property {W} is deprecated", {"configuration property"}, {"deprecate"});
  c.add("child.codec", "INFO", "compress.CodecPool",
        "Got brand-new compressor {W}", {"brand-new compressor"}, {"get"});

  // --- anomaly-phase templates ---------------------------------------------
  c.add("red.fetch.fail", "ERROR", "reduce.Fetcher",
        "fetcher # {I:FETCHER} failed to connect to {L} with {V} map outputs",
        {"fetcher", "map output"}, {"fail", "connect"});
  c.add("red.fetch.retry", "WARN", "reduce.Fetcher",
        "fetcher # {I:FETCHER} retrying connect to {L} in {V} ms", {"fetcher"},
        {"retry", "connect"});
  c.add("map.spill.extra", "WARN", "mapred.MapTask",
        "Spilling map output because record buffer is full", {"map output", "record buffer"},
        {"spill"});
  // Rare slow path (over-allocated detection configs only): §6.4 FP source.
  c.add("task.ping.retry", "WARN", "mapred.Task",
        "Communication retry: pinging application master again", {"communication retry",
        "application master"}, {"retry"});
  return c;
}

}  // namespace

const TemplateCorpus& mapreduce_corpus() {
  static const TemplateCorpus corpus = build_mapreduce_corpus();
  return corpus;
}

JobResult MapReduceJobSim::run(const JobSpec& spec, const ClusterSpec& cluster,
                               const FaultPlan& fault) const {
  JobResult result;
  result.spec = spec;
  result.fault = fault;

  common::Rng rng(spec.seed ^ 0x6d72ULL);
  const TemplateCorpus& corpus = mapreduce_corpus();

  const int num_mappers = std::clamp(spec.input_gb * 8, 6, 240);
  const int num_reducers = std::clamp(spec.input_gb / 2, 1, 12);
  const bool spill_mode = !spec.memory_sufficient();

  const std::uint64_t job_start = 3600000ULL * (1 + rng.uniform(20));
  // Sessions emit every ~15 ms of simulated time; the reducers' fetch phase
  // (where network symptoms surface) runs roughly 4-10 s after job start.
  const std::uint64_t approx_span = 6000 + static_cast<std::uint64_t>(num_mappers) * 80;
  const std::uint64_t fault_time =
      job_start + static_cast<std::uint64_t>(fault.at_fraction * static_cast<double>(approx_span));
  const std::string fault_host =
      fault.target_node >= 0 ? cluster.node_name(fault.target_node) : "";

  const std::string app_id = "application_" + std::to_string(1550000000 + spec.seed % 100000) +
                             "_" + std::to_string(1 + spec.seed % 97);
  const std::string job_id = "job_" + std::to_string(1550000000 + spec.seed % 100000) + "_" +
                             std::to_string(1 + spec.seed % 97);
  const auto attempt_id = [&](int task, bool reduce) {
    return std::string("attempt_") + std::to_string(1550000000 + spec.seed % 100000) + "_" +
           (reduce ? "r" : "m") + "_" + std::to_string(task) + "_0";
  };
  const auto container_id = [&](int idx) {
    return "container_" + std::to_string(spec.seed % 100000) + "_02_" + std::to_string(idx);
  };

  const int total_containers = 1 + num_mappers + num_reducers;
  const int abort_victim = fault.kind == ProblemKind::SessionAbort
                               ? static_cast<int>(rng.uniform(total_containers))
                               : -1;

  // Node placement for every container; mappers' hosts are fetch sources.
  std::vector<int> placement(static_cast<std::size_t>(total_containers));
  for (auto& p : placement) p = static_cast<int>(rng.uniform(cluster.num_workers));

  const auto finish_session = [&](SessionBuilder& b, int idx, bool& fault_affected) {
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

  // ---- MRAppMaster session (container 1) -----------------------------------
  {
    SessionBuilder b(corpus, container_id(1), cluster.node_name(placement[0]), job_start,
                     rng.fork());
    bool fault_affected = false;
    b.emit("am.created", {app_id});
    b.emit("am.recovery", {});
    b.emit("am.committer", {"FileOutputCommitter"});  // class name, no package
    b.emit("am.token", {"HDFS_DELEGATION_TOKEN"});
    b.emit("am.job.transition", {job_id, "NEW", "INITED"});
    b.emit("am.job.transition", {job_id, "INITED", "SETUP"});
    b.emit("am.job.transition", {job_id, "SETUP", "RUNNING"});
    for (int m = 0; m < num_mappers; ++m) {
      b.emit("am.launch", {container_id(2 + m), attempt_id(m, false)});
      b.emit("am.task.transition", {attempt_id(m, false), "ASSIGNED", "RUNNING"});
      if (b.rng().chance(0.25)) {
        b.emit("am.progress", {attempt_id(m, false),
                               "0." + std::to_string(1 + b.rng().uniform(9))});
      }
      if (m % 5 == 0) {
        b.emit("am.num.completed",
               {std::to_string(m), std::to_string(num_mappers), std::to_string(num_reducers)});
        b.emit("am.resources", {std::to_string(4096 + b.rng().uniform(8192)),
                                std::to_string(1 + b.rng().uniform(16))});
      }
      b.emit("am.task.succeeded", {attempt_id(m, false)});
    }
    if (fault.kind == ProblemKind::NodeFailure && b.now() >= fault_time && !fault_host.empty()) {
      b.emit("am.node.lost", {fault_host + ":8041"}, /*injected=*/true);
      fault_affected = true;
    }
    for (int r = 0; r < num_reducers; ++r) {
      b.emit("am.launch", {container_id(2 + num_mappers + r), attempt_id(r, true)});
      b.emit("am.task.transition", {attempt_id(r, true), "ASSIGNED", "RUNNING"});
      if (fault.kind != ProblemKind::None && b.rng().chance(0.15)) {
        // Downstream symptom the AM occasionally records under faults.
        if (fault.kind == ProblemKind::NetworkFailure || fault.kind == ProblemKind::NodeFailure) {
          b.emit("am.fetch.failures", {attempt_id(r, true)}, /*injected=*/true);
          fault_affected = true;
        }
      }
      b.emit("am.task.succeeded", {attempt_id(r, true)});
    }
    b.emit("am.job.transition", {job_id, "RUNNING", "COMMITTING"});
    b.emit("am.job.transition", {job_id, "COMMITTING", "SUCCEEDED"});
    b.emit("am.staging.delete", {"hdfs://master:9000/tmp/hadoop-yarn/staging/" + job_id});
    finish_session(b, 0, fault_affected);
    if (fault_affected) result.affected_containers.insert(b.container_id());
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  }

  // ---- mapper sessions -------------------------------------------------------
  for (int m = 0; m < num_mappers; ++m) {
    const int idx = 1 + m;
    SessionBuilder b(corpus, container_id(2 + m),
                     cluster.node_name(placement[static_cast<std::size_t>(idx)]),
                     job_start + 1500 + rng.uniform(static_cast<std::uint64_t>(approx_span) / 2),
                     rng.fork());
    bool fault_affected = false;
    bool perf_affected = false;
    b.emit("map.jvm.metrics", {std::to_string(b.rng().uniform(1000))});
    b.emit("map.metrics.start", {});
    b.emit("map.metrics.snapshot", {"10"});
    if (b.rng().chance(0.6)) b.emit("map.calculator", {});
    b.emit("map.split",
           {"hdfs://master:9000/user/input/part-" + std::to_string(m) + ":0+134217728"});
    b.emit("map.numreduces", {std::to_string(num_reducers)});
    // Setup lines come from independent subsystems: their order varies and
    // several are optional, so the next log key is one of a dozen — the
    // §6.4 unpredictability that defeats next-key prediction.
    {
      std::vector<std::function<void()>> setup;
      setup.push_back([&] {
        b.emit("map.collector", {"org.apache.hadoop.mapred.MapTask$MapOutputBuffer", "80"});
      });
      setup.push_back([&] { b.emit("map.committer.class", {"FileOutputCommitter"}); });
      setup.push_back([&] { b.emit("map.softlimit", {std::to_string(83886080)}); });
      setup.push_back([&] {
        b.emit("map.kvbuffer", {std::to_string(b.rng().uniform(26214400)),
                                std::to_string(b.rng().uniform(26214400)),
                                std::to_string(b.rng().uniform(1000000))});
      });
      const auto optional = [&](double p, std::function<void()> fn) {
        if (b.rng().chance(p)) setup.push_back(std::move(fn));
      };
      optional(0.7, [&] { b.emit("child.tokens", {job_id}); });
      optional(0.2, [&] {
        b.emit("child.sleep.conf", {std::to_string(100 + b.rng().uniform(400))});
      });
      optional(0.5, [&] {
        b.emit("child.symlink", {"/hadoop/yarn/local/usercache/filecache/" +
                                 std::to_string(b.rng().uniform(100))});
      });
      optional(0.6, [&] {
        b.emit("child.workdir",
               {"/hadoop/yarn/local/usercache/appcache/" + app_id + "/work"});
      });
      optional(0.5, [&] {
        static const char* kUsers[] = {"hadoop", "alice", "etl", "svc"};
        b.emit("child.ugi", {kUsers[b.rng().uniform(4)]});
      });
      optional(0.3, [&] { b.emit("child.limits", {}); });
      optional(0.4, [&] {
        static const char* kKeys[] = {"mapred.job.id", "mapred.task.partition",
                                      "mapred.map.tasks"};
        b.emit("child.deprecation", {kKeys[b.rng().uniform(3)]});
      });
      optional(0.4, [&] { b.emit("child.codec", {"[deflate-1]"}); });
      b.rng().shuffle(setup);
      for (auto& step : setup) step();
    }
    // The record-processing main thread and the SpillThread interleave,
    // like in the real MapTask.
    {
      SessionBuilder spill_thread = b.fork(40);
      const int record_batches = 3 + static_cast<int>(b.rng().uniform(2 + spec.input_gb / 2));
      for (int rb = 0; rb < record_batches; ++rb) {
        b.emit("map.records", {std::to_string(100000 + b.rng().uniform(900000))});
        if (b.rng().chance(0.3)) b.emit("map.report", {});
        if (spill_thread.rng().chance(0.4)) {
          spill_thread.emit("map.sort.buffer", {});
          spill_thread.emit("map.kvbuffer",
                            {std::to_string(spill_thread.rng().uniform(26214400)),
                             std::to_string(spill_thread.rng().uniform(26214400)),
                             std::to_string(spill_thread.rng().uniform(1000000))});
        }
        b.advance(200, 1200);
        spill_thread.advance(200, 1200);
      }
      b.absorb(std::move(spill_thread));
    }
    b.advance(500, 4000);
    if (spill_mode) {
      const int extra = 1 + static_cast<int>(b.rng().uniform(3));
      for (int s = 0; s < extra; ++s) {
        b.emit("map.spill.extra", {});
        b.emit("map.spill.finished", {std::to_string(s)});
        perf_affected = true;
      }
    }
    b.emit("map.flush", {});
    b.emit("map.spill.finished", {std::to_string(spill_mode ? 3 : 0)});
    b.emit("map.done", {attempt_id(m, false)});
    b.emit("map.commit.allowed", {attempt_id(m, false)});
    if (b.rng().chance(0.5)) b.emit("task.commit.go", {attempt_id(m, false)});
    b.emit("map.output.saved", {attempt_id(m, false),
                                "hdfs://master:9000/user/output/_temporary/" + std::to_string(m)});
    if (spec.container_memory_mb > spec.required_memory_mb() * 6 && b.rng().chance(0.002)) {
      b.emit("task.ping.retry", {});
    }
    b.emit("map.metrics.stop", {});
    finish_session(b, idx, fault_affected);
    if (fault_affected) result.affected_containers.insert(b.container_id());
    if (perf_affected) result.perf_affected_containers.insert(b.container_id());
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  }

  // ---- reducer sessions -------------------------------------------------------
  for (int r = 0; r < num_reducers; ++r) {
    const int idx = 1 + num_mappers + r;
    SessionBuilder b(corpus, container_id(2 + num_mappers + r),
                     cluster.node_name(placement[static_cast<std::size_t>(idx)]),
                     job_start + 4000 + rng.uniform(4000), rng.fork());
    const std::string node = b.node();
    bool fault_affected = false;
    b.emit("map.metrics.start", {});  // ReduceTask uses the same metrics bootstrap
    b.emit("red.plugin", {"org.apache.hadoop.mapreduce.task.reduce.Shuffle"});
    b.emit("red.merge.thread", {});
    b.emit("red.eventfetcher", {attempt_id(r, true)});
    b.emit("red.events.sleep", {std::to_string(500 + b.rng().uniform(1000))});

    // Parallel fetcher threads pull each mapper's output.
    const int num_fetchers = 4;
    std::vector<SessionBuilder> fetchers;
    for (int f = 0; f < num_fetchers; ++f) fetchers.push_back(b.fork(f * 11));
    const int fetch_count = std::min(num_mappers, 40 + static_cast<int>(rng.uniform(40)));
    for (int m = 0; m < fetch_count; ++m) {
      if (m % 12 == 0) {
        const std::string src =
            cluster.node_name(placement[static_cast<std::size_t>(1 + m)]) + ":13562";
        b.emit("red.fetch.schedule",
               {std::to_string(std::min(12, fetch_count - m)), src});
      }
      SessionBuilder& f = fetchers[static_cast<std::size_t>(m % num_fetchers)];
      // Fetcher thread numbering is unique across the job's reducers.
      const std::string fetcher_id = std::to_string(1 + r * num_fetchers + m % num_fetchers);
      const std::string map_attempt = attempt_id(m, false);
      const std::string source_host =
          cluster.node_name(placement[static_cast<std::size_t>(1 + m)]);
      const std::string source = source_host + ":13562";
      const bool fault_hit = (fault.kind == ProblemKind::NetworkFailure ||
                              fault.kind == ProblemKind::NodeFailure) &&
                             f.now() >= fault_time && source_host == fault_host;
      if (f.rng().chance(0.35)) {
        f.emit("red.fetch.assign",
               {source, std::to_string(1 + f.rng().uniform(6)), fetcher_id});
      }
      f.emit("red.fetch.about", {fetcher_id, map_attempt});
      if (f.rng().chance(0.3)) f.emit("red.fetch.verify", {map_attempt});
      if (fault_hit) {
        for (int att = 0; att < 2; ++att) {
          f.emit("red.fetch.fail",
                 {fetcher_id, source, std::to_string(1 + f.rng().uniform(4))},
                 /*injected=*/true);
          f.emit("red.fetch.retry", {fetcher_id, source, std::to_string(3000)},
                 /*injected=*/true);
        }
        fault_affected = true;
      } else {
        f.emit("red.fetch.read",
               {fetcher_id, std::to_string(1000 + f.rng().uniform(900000)), map_attempt});
        if (f.rng().chance(0.3)) {
          f.emit("red.inmem.shuffle", {std::to_string(1000 + f.rng().uniform(900000))});
        } else if (f.rng().chance(0.3)) {
          f.emit("red.ondisk.move", {});
        }
        if (f.rng().chance(0.25)) {
          f.emit("red.fetch.rate",
                 {std::to_string(1000 + f.rng().uniform(900000)), map_attempt,
                  std::to_string(100 + f.rng().uniform(40000))});
        }
        f.emit("red.fetch.freed",
               {source, fetcher_id, std::to_string(1 + f.rng().uniform(40))});
        f.emit("red.map.completed", {map_attempt});
      }
      f.advance(5, 60);
    }
    for (auto& f : fetchers) b.absorb(std::move(f));

    b.emit("red.merge.inmem", {std::to_string(8 + b.rng().uniform(56))});
    b.emit("red.merge.segments", {std::to_string(4 + b.rng().uniform(28))});
    if (b.rng().chance(0.6)) {
      b.emit("red.merge.satisfy", {std::to_string(2 + b.rng().uniform(10)),
                                   std::to_string(100000 + b.rng().uniform(10000000))});
    }
    b.emit("red.merge.last", {std::to_string(1 + b.rng().uniform(9)),
                              std::to_string(100000 + b.rng().uniform(90000000))});
    b.emit("red.phase", {});
    b.advance(1000, 9000);
    b.emit("map.done", {attempt_id(r, true)});
    b.emit("map.commit.allowed", {attempt_id(r, true)});
    b.emit("map.output.saved",
           {attempt_id(r, true), "hdfs://master:9000/user/output/part-r-" + std::to_string(r)});
    b.emit("red.executor.complete", {});
    b.emit("map.metrics.stop", {});
    finish_session(b, idx, fault_affected);
    if (fault_affected) result.affected_containers.insert(b.container_id());
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  }

  return result;
}

}  // namespace intellog::simsys
