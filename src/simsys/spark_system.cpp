#include "simsys/spark_system.hpp"

#include <algorithm>

#include "simsys/event_sim.hpp"

namespace intellog::simsys {

namespace {

TemplateCorpus build_spark_corpus() {
  TemplateCorpus c("spark");
  // --- startup / acl ------------------------------------------------------
  c.add("signal.register", "INFO", "util.SignalUtils",
        "Registered signal handler for {W}", {"signal handler"}, {"register"});
  // "view"/"modify" land in the same Spell key ("Changing * acls to: *"),
  // so the sampled variable word is filtered and the entity is "acl".
  c.add("acl.view", "INFO", "SecurityManager",
        "Changing view acls to: {W}", {"acl"}, {"change"});
  // "modify" reads as a noun to a tagger, so an extractor will report the
  // phrase "modify acl"; the human-checked truth is just "acl" — this is a
  // deliberate false-positive source mirroring §6.2.
  c.add("acl.modify", "INFO", "SecurityManager",
        "Changing modify acls to: {W}", {"acl"}, {"change"});
  c.add("acl.security", "INFO", "SecurityManager",
        "Security manager initialized with ui acls disabled", {"security manager", "ui acl"},
        {"initialize"});

  // --- memory -------------------------------------------------------------
  c.add("memory.start", "INFO", "memory.MemoryStore",
        "MemoryStore started with capacity {V} MB", {"memory store", "capacity"}, {"start"});
  c.add("memory.allocate", "INFO", "memory.UnifiedMemoryManager",
        "Allocating {V} MB memory for execution and storage", {"memory", "execution", "storage"},
        {"allocate"});
  c.add("memory.clear", "INFO", "memory.MemoryStore",
        "MemoryStore cleared", {"memory store"}, {"clear"});

  // --- directory ----------------------------------------------------------
  c.add("dir.create", "INFO", "storage.DiskBlockManager",
        "Created local directory at {L}", {"local directory"}, {"create"});

  // --- driver -------------------------------------------------------------
  c.add("driver.connect", "INFO", "executor.CoarseGrainedExecutorBackend",
        "Connecting to driver at {L}", {"driver"}, {"connect"});
  c.add("driver.register", "INFO", "executor.CoarseGrainedExecutorBackend",
        "Successfully registered with driver", {"driver"}, {"register"});
  c.add("driver.heartbeat", "INFO", "executor.Executor",
        "Sending heartbeat to driver with {V} accumulator updates",
        {"heartbeat", "driver", "accumulator update"}, {"send"});

  // --- block --------------------------------------------------------------
  c.add("block.registering", "INFO", "storage.BlockManager",
        "Registering BlockManager {I:BLOCKMANAGER}", {"block manager"}, {"register"});
  c.add("block.registered", "INFO", "storage.BlockManagerMaster",
        "Registered BlockManager {I:BLOCKMANAGER}", {"block manager"}, {"register"});
  c.add("block.initialized", "INFO", "storage.BlockManager",
        "Initialized BlockManager {I:BLOCKMANAGER}", {"block manager"}, {"initialize"});
  c.add("block.store.memory", "INFO", "memory.MemoryStore",
        "Block {I:BLOCK} stored as values in memory (estimated size {V} KB, free {V} MB)",
        {"block", "memory"}, {"store"});
  c.add("block.get", "INFO", "storage.ShuffleBlockFetcherIterator",
        "Getting {V} non-empty blocks out of {V} blocks", {"block"}, {"get"});
  c.add("block.stop", "INFO", "storage.BlockManager",
        "BlockManager stopped", {"block manager"}, {"stop"});

  // --- task (child group) ---------------------------------------------------
  c.add("task.assigned", "INFO", "executor.CoarseGrainedExecutorBackend",
        "Got assigned task {I:TID}", {"task"}, {"assign"});
  c.add("task.running", "INFO", "executor.Executor",
        "Running task {I:TASK} in stage {I:STAGE} (TID {I:TID})", {"task", "stage", "tid"},
        {"run"});
  // "TID" is an abbreviation: the extractor reports the entity "tid" while
  // the checked truth omits it (same FP class the paper reports in §6.2).
  c.add("task.finished", "INFO", "executor.Executor",
        "Finished task {I:TASK} in stage {I:STAGE} (TID {I:TID}). {V} bytes result sent to "
        "driver",
        {"task", "stage", "tid", "result", "driver"}, {"finish", "send"});

  // --- fetch (child group) ---------------------------------------------------
  c.add("fetch.remote", "INFO", "storage.ShuffleBlockFetcherIterator",
        "Started {V} remote fetches in {V} ms", {"remote fetch"}, {"start"});
  c.add("fetch.broadcast", "INFO", "broadcast.TorrentBroadcast",
        "Started reading broadcast variable {I:BROADCAST}", {"broadcast variable"}, {"start"});
  c.add("fetch.broadcast.took", "INFO", "broadcast.TorrentBroadcast",
        "Reading broadcast variable {I:BROADCAST} took {V} ms", {"broadcast variable"},
        {"take"});

  // --- shutdown -------------------------------------------------------------
  c.add("shutdown.command", "INFO", "executor.CoarseGrainedExecutorBackend",
        "Driver commanded a shutdown", {"driver", "shutdown"}, {"command"});
  c.add("shutdown.hook.called", "INFO", "util.ShutdownHookManager",
        "Shutdown hook called", {"shutdown hook"}, {"call"});
  c.add("shutdown.hook.invoke", "INFO", "util.ShutdownHookManager",
        "Invoking shutdown hook", {"shutdown hook"}, {"invoke"});

  // --- driver-only extras (secondary groups, emitted in container 1) -------
  // The TaskSetManager line ties TID <-> host <-> executor <-> stage/task —
  // the identifier co-occurrences behind the Fig. 9 S3 graph.
  c.add("sched.task.start", "INFO", "scheduler.TaskSetManager",
        "Starting task {I:TASK} in stage {I:STAGE} (TID {I:TID}, {L}, executor {I:EXECUTOR})",
        {"task", "stage", "tid", "executor"}, {"start"});
  c.add("sched.submit", "INFO", "scheduler.DAGScheduler",
        "Submitting {V} missing tasks from final stage {I:STAGE}", {"task", "final stage"},
        {"submit"});
  c.add("sched.stage.done", "INFO", "scheduler.DAGScheduler",
        "Final stage {I:STAGE} finished in {V} s", {"final stage"}, {"finish"});
  c.add("sched.job.done", "INFO", "scheduler.DAGScheduler",
        "Job {I:JOB} finished: collect took {V} s", {"job"}, {"finish", "take"});
  c.add("kmeans.iteration", "INFO", "mllib.clustering.KMeans",
        "Iteration {V} converged with cost {V}", {"iteration", "cost"}, {"converge"});

  // --- additional executor-path templates -----------------------------------
  c.add("daemon.start", "INFO", "executor.CoarseGrainedExecutorBackend",
        "Started daemon with process name {I:PROC}", {"daemon", "process name"}, {"start"});
  c.add("conn.created", "INFO", "network.client.TransportClientFactory",
        "Successfully created connection to {L} after {V} ms", {"connection"}, {"create"});
  c.add("task.deserialized", "INFO", "executor.Executor",
        "Deserialized task {I:TID} in {V} ms", {"task"}, {"deserialize"});
  c.add("block.found.local", "INFO", "storage.BlockManager",
        "Found block {I:BLOCK} locally", {"block"}, {"find"});
  // "info" is an abbreviation: the extractor reports "info of block" while
  // the checked truth keeps only "block" (paper's §6.2 FP class).
  c.add("block.update", "INFO", "storage.BlockManagerMaster",
        "Updated info of block {I:BLOCK}", {"block"}, {"update"});
  c.add("block.put", "INFO", "storage.BlockManager",
        "Putting block {I:BLOCK} without replication took {V} ms", {"block", "replication"},
        {"put", "take"});
  c.add("rdd.remove", "INFO", "storage.BlockManagerSlaveEndpoint",
        "Removing RDD {I:RDD}", {"rdd"}, {"remove"});
  c.add("broadcast.remove", "INFO", "storage.BlockManagerSlaveEndpoint",
        "Removed broadcast {I:BROADCAST} of size {V} KB", {"broadcast"}, {"remove"});
  c.add("cleaner.accum", "INFO", "ContextCleaner",
        "Cleaned accumulator {I:ACC}", {"accumulator"}, {"clean"});
  c.add("cleaner.shuffle", "INFO", "ContextCleaner",
        "Cleaned shuffle {I:SHUFFLE}", {"shuffle"}, {"clean"});
  c.add("shuffle.write", "INFO", "shuffle.sort.SortShuffleWriter",
        "Shuffle write of {V} bytes took {V} ms", {"shuffle write"}, {"take"});
  c.add("shuffle.mapout", "INFO", "MapOutputTrackerWorker",
        "Getting {V} (of {V}) map outputs for shuffle {I:SHUFFLE}", {"map output", "shuffle"},
        {"get"});
  c.add("task.result.send", "INFO", "executor.Executor",
        "Sending result for {I:TID} directly to driver", {"result", "driver"}, {"send"});
  c.add("job.start", "INFO", "SparkContext",
        "Starting job: {W} at driver", {"job", "driver"}, {"start"});
  c.add("files.fetch", "INFO", "util.Utils",
        "Fetching {L} with timestamp {V}", {"timestamp"}, {"fetch"});
  c.add("exec.start.id", "INFO", "executor.CoarseGrainedExecutorBackend",
        "Starting executor ID {I:EXECUTOR} on host {L}", {"executor id", "host"}, {"start"});
  c.add("block.evict", "INFO", "memory.MemoryStore",
        "Evicting block {I:BLOCK} from memory to free {V} MB", {"block", "memory"},
        {"evict", "free"});
  c.add("block.tell", "INFO", "storage.BlockManager",
        "Telling driver about block {I:BLOCK}", {"driver", "block"}, {"tell"});
  c.add("rdd.persist", "INFO", "rdd.RDD",
        "Persisting RDD {I:RDD} to memory", {"rdd", "memory"}, {"persist"});
  c.add("split.assign", "INFO", "rdd.HadoopRDD",
        "Input split on {L} assigned to task {I:TID}", {"input split", "task"}, {"assign"});
  c.add("codegen", "INFO", "sql.catalyst.expressions.codegen.CodeGenerator",
        "Generated code for expression in {V} ms", {"code", "expression"}, {"generate"});
  c.add("sched.taskset.add", "INFO", "scheduler.TaskSchedulerImpl",
        "Adding task set {I:TASKSET} with {V} tasks", {"task set", "task"}, {"add"});
  c.add("sched.taskset.remove", "INFO", "scheduler.TaskSchedulerImpl",
        "Removed task set {I:TASKSET} after completion", {"task set", "completion"},
        {"remove"});
  c.add("driver.ui", "INFO", "ui.SparkUI",
        "Bound web UI to port {I:PORT}", {"web ui", "port"}, {"bind"});

  // --- anomaly-phase templates (never seen during tuned training) ----------
  c.add("spill.ing", "WARN", "util.collection.ExternalSorter",
        "Spilling in-memory map of {V} MB to disk ({V} times so far)", {"in-memory map", "disk"},
        {"spill"});
  c.add("spill.done", "INFO", "util.collection.ExternalSorter",
        "Spill of {V} MB to disk completed in {V} ms", {"spill", "disk"}, {"complete"});
  c.add("net.connect.fail", "ERROR", "network.shuffle.RetryingBlockFetcher",
        "Failed to connect to {L}", {}, {"fail", "connect"});
  c.add("net.retry", "INFO", "network.shuffle.RetryingBlockFetcher",
        "Retrying fetch ({V}/3) for {V} outstanding blocks after {V} ms", {"fetch", "block"},
        {"retry"});
  c.add("exec.lost", "ERROR", "scheduler.TaskSchedulerImpl",
        "Lost executor {I:EXECUTOR} on {L}: remote client disassociated",
        {"executor", "remote client"}, {"lose", "disassociate"});
  // Rare slow-shutdown line: the §6.4 false-positive mechanism. Configs are
  // tuned in training so workers never see the final driver heartbeat.
  c.add("shutdown.disassociated", "WARN", "executor.CoarseGrainedExecutorBackend",
        "Executor disconnected from driver during shutdown", {"executor", "driver", "shutdown"},
        {"disconnect"});
  return c;
}

}  // namespace

const TemplateCorpus& spark_corpus() {
  static const TemplateCorpus corpus = build_spark_corpus();
  return corpus;
}

JobResult SparkJobSim::run(const JobSpec& spec, const ClusterSpec& cluster,
                           const FaultPlan& fault) const {
  JobResult result;
  result.spec = spec;
  result.fault = fault;

  common::Rng rng(spec.seed);
  const TemplateCorpus& corpus = spark_corpus();

  const int num_containers =
      std::clamp(2 + spec.input_gb / 3, 4, std::max(4, cluster.num_workers));
  const int tasks_total = std::max(num_containers, spec.input_gb * 8);
  const int threads = std::clamp(spec.container_cores - 2, 2, 6);
  const bool spill_mode = !spec.memory_sufficient();

  // Job-level identifier spaces.
  int next_tid = 0;
  const std::uint64_t job_start = 3600000ULL * (1 + rng.uniform(20));

  // Fault timing: pick the absolute trigger time from the (rough) job span
  // (sessions emit a record every ~15 ms of simulated time).
  const std::uint64_t approx_span =
      1500 + static_cast<std::uint64_t>(tasks_total / num_containers) * 140;
  const std::uint64_t fault_time =
      job_start + static_cast<std::uint64_t>(fault.at_fraction * static_cast<double>(approx_span));
  const std::string fault_host =
      fault.target_node >= 0 ? cluster.node_name(fault.target_node) : "";

  // Which container the SessionAbort kills.
  const int abort_victim =
      fault.kind == ProblemKind::SessionAbort ? static_cast<int>(rng.uniform(num_containers)) : -1;

  // Task launches recorded for the driver's TaskSetManager lines.
  struct TaskStart {
    std::uint64_t ts;
    std::string task, stage, tid, node, executor;
  };
  std::vector<TaskStart> task_starts;

  const auto build_container = [&](int ci) {
    const int node_idx = static_cast<int>(rng.uniform(cluster.num_workers));
    const std::string node = cluster.node_name(node_idx);
    const std::string container =
        "container_" + std::to_string(spec.seed % 100000) + "_01_" + std::to_string(ci + 1);
    const std::string executor_id = std::to_string(ci + 1);
    const std::string bm_id = "BlockManagerId(" + executor_id + ")";
    const std::string driver_addr = "spark://CoarseGrainedScheduler@" + cluster.master_name() +
                                    ":" + std::to_string(37000 + ci);

    SessionBuilder b(corpus, container, node, job_start + rng.uniform(4000), rng.fork());

    // The Spark-19371 bug starves the upper half of containers of tasks.
    const bool starved = fault.spark19371_bug && ci >= num_containers / 2;
    const int my_tasks = starved ? 0 : std::max(1, tasks_total / num_containers);

    // ---- setup -----------------------------------------------------------
    b.emit("daemon.start", {std::to_string(10000 + b.rng().uniform(50000)) + "@" + node});
    for (const char* sig : {"TERM", "HUP", "INT"}) b.emit("signal.register", {sig});
    static const char* kUsers[] = {"hadoop", "alice", "spark", "svc-etl"};
    const std::string user = kUsers[spec.seed % 4];
    b.emit("acl.view", {user});
    b.emit("acl.modify", {user});
    b.emit("acl.security", {});
    // Racy setup: directory vs. memory order flips per container, keeping
    // the two groups PARALLEL (siblings in Fig. 8) rather than nested.
    const auto emit_dirs = [&] {
      b.emit("dir.create", {"/tmp/spark-" + executor_id + "/blockmgr-" +
                            std::to_string(b.rng().uniform(100000))});
      if (b.rng().chance(0.6)) {
        b.emit("dir.create", {"/tmp/spark-" + executor_id + "/userFiles-" +
                              std::to_string(b.rng().uniform(100000))});
      }
    };
    const auto emit_memory = [&] {
      b.emit("memory.start", {std::to_string(spec.container_memory_mb / 2)});
      b.emit("memory.allocate", {std::to_string(spec.container_memory_mb / 3)});
    };
    if (b.rng().chance(0.5)) {
      emit_dirs();
      emit_memory();
    } else {
      emit_memory();
      emit_dirs();
    }
    b.emit("exec.start.id", {executor_id, node});
    b.emit("driver.connect", {driver_addr});
    b.emit("conn.created", {cluster.master_name() + ":" + std::to_string(37000 + ci),
                            std::to_string(1 + b.rng().uniform(40))});
    b.emit("driver.register", {});
    b.emit("files.fetch", {"spark://" + cluster.master_name() + ":37000/jars/app.jar",
                           std::to_string(1550000000 + b.rng().uniform(100000))});
    b.emit("block.registering", {bm_id});
    b.emit("block.registered", {bm_id});
    b.emit("block.initialized", {bm_id});
    b.advance(50, 300);

    // ---- task execution ----------------------------------------------------
    bool perf_affected = false;
    bool fault_affected = false;
    const int stage_count = spec.name == "KMeans" ? 3 : 2;
    if (my_tasks > 0) {
      int emitted = 0;
      for (int stage = 0; stage < stage_count && emitted < my_tasks; ++stage) {
        const std::string stage_id = std::to_string(stage) + ".0";
        const int in_stage = std::max(1, my_tasks / stage_count);
        // Task-runner threads interleave within the wave.
        std::vector<SessionBuilder> runners;
        for (int t = 0; t < threads; ++t) runners.push_back(b.fork(t * 7));
        for (int k = 0; k < in_stage; ++k, ++emitted) {
          SessionBuilder& r = runners[static_cast<std::size_t>(k % threads)];
          const std::string tid = std::to_string(next_tid++);
          const std::string task_id = std::to_string(k) + ".0";
          task_starts.push_back({r.now(), task_id, stage_id, tid, node, executor_id});
          r.emit("task.assigned", {tid});
          r.emit("task.running", {task_id, stage_id, tid});
          r.emit("task.deserialized", {tid, std::to_string(1 + r.rng().uniform(25))});
          if (stage == 0 && k < 2) {
            const std::string bcast = "broadcast_" + std::to_string(stage);
            r.emit("fetch.broadcast", {bcast});
            r.emit("fetch.broadcast.took", {bcast, std::to_string(5 + r.rng().uniform(40))});
          }
          if (stage > 0) {
            // Shuffle read side; shuffle files occasionally allocate a new
            // local directory, so the directory group spans execution.
            if (r.rng().chance(0.15)) {
              r.emit("dir.create", {"/tmp/spark-" + executor_id + "/shuffle-" +
                                    std::to_string(r.rng().uniform(100000))});
            }
            r.emit("block.get", {std::to_string(4 + r.rng().uniform(60)),
                                 std::to_string(64 + r.rng().uniform(100))});
            // Network / node failure symptom: fetches against the dead host
            // fail and retry once the fault has triggered.
            if ((fault.kind == ProblemKind::NetworkFailure ||
                 fault.kind == ProblemKind::NodeFailure) &&
                r.now() >= fault_time && node != fault_host && r.rng().chance(0.55)) {
              const std::string target = fault_host + ":" + std::to_string(7337);
              for (int att = 1; att <= 3; ++att) {
                r.emit("net.connect.fail", {target}, /*injected=*/true);
                r.emit("net.retry",
                       {std::to_string(att), std::to_string(1 + r.rng().uniform(20)),
                        std::to_string(5000)},
                       /*injected=*/true);
              }
              fault_affected = true;
            } else {
              r.emit("fetch.remote", {std::to_string(1 + r.rng().uniform(8)),
                                      std::to_string(2 + r.rng().uniform(30))});
            }
          }
          const std::string rdd_block =
              "rdd_" + std::to_string(stage) + "_" + std::to_string(k);
          if (r.rng().chance(0.3)) {
            r.emit("split.assign", {"hdfs://master:9000/user/input/part-" +
                                        std::to_string(k) + ":0+134217728",
                                    tid});
          }
          if (r.rng().chance(0.7)) {
            if (r.rng().chance(0.2)) r.emit("rdd.persist", {rdd_block.substr(0, 5)});
            r.emit("block.store.memory",
                   {rdd_block, std::to_string(16 + r.rng().uniform(500)),
                    std::to_string(100 + r.rng().uniform(1000))});
            if (r.rng().chance(0.5)) r.emit("block.update", {rdd_block});
            if (r.rng().chance(0.3)) r.emit("block.tell", {rdd_block});
            if (r.rng().chance(0.07)) {
              r.emit("block.evict", {rdd_block, std::to_string(8 + r.rng().uniform(120))});
            }
          } else if (r.rng().chance(0.5)) {
            r.emit("block.found.local", {rdd_block});
          }
          if (r.rng().chance(0.15)) {
            r.emit("codegen", {std::to_string(5 + r.rng().uniform(200))});
          }
          if (stage == 0 && r.rng().chance(0.4)) {
            r.emit("shuffle.write", {std::to_string(1000 + r.rng().uniform(900000)),
                                     std::to_string(1 + r.rng().uniform(60))});
          }
          if (stage > 0 && r.rng().chance(0.3)) {
            r.emit("shuffle.mapout",
                   {std::to_string(1 + r.rng().uniform(16)),
                    std::to_string(16 + r.rng().uniform(16)),
                    "shuffle_" + std::to_string(stage - 1)});
          }
          if (r.rng().chance(0.25)) {
            r.emit("task.result.send", {tid});
          }
          if (r.rng().chance(0.2)) {
            r.emit("block.put", {rdd_block, std::to_string(1 + r.rng().uniform(30))});
          }
          if (spill_mode && r.rng().chance(0.5)) {
            r.emit("spill.ing",
                   {std::to_string(spec.container_memory_mb / 2),
                    std::to_string(1 + r.rng().uniform(6))},
                   /*injected=*/false);
            r.emit("spill.done",
                   {std::to_string(spec.container_memory_mb / 2),
                    std::to_string(100 + r.rng().uniform(900))},
                   /*injected=*/false);
            perf_affected = true;
          }
          r.emit("task.finished",
                 {task_id, stage_id, tid, std::to_string(900 + r.rng().uniform(3000))});
          r.advance(20, 200);
        }
        for (auto& r : runners) b.absorb(std::move(r));
        b.emit("driver.heartbeat", {std::to_string(b.rng().uniform(12))});
        // Context cleaner runs between waves.
        if (b.rng().chance(0.5)) {
          b.emit("cleaner.accum", {std::to_string(1 + b.rng().uniform(400))});
        }
        if (stage > 0 && b.rng().chance(0.4)) {
          b.emit("cleaner.shuffle", {std::to_string(stage - 1)});
        }
        if (b.rng().chance(0.3)) {
          b.emit("rdd.remove", {std::to_string(b.rng().uniform(8))});
        }
        if (b.rng().chance(0.3)) {
          b.emit("broadcast.remove", {"broadcast_" + std::to_string(stage),
                                      std::to_string(2 + b.rng().uniform(60))});
        }
        b.advance(40, 400);
      }
    } else {
      // Starved container: it still heartbeats, then idles until shutdown.
      b.emit("driver.heartbeat", {"0"});
      b.advance(2000, 8000);
      b.emit("driver.heartbeat", {"0"});
      perf_affected = fault.spark19371_bug;
    }

    // ---- driver-only extras (container 1) --------------------------------
    if (ci == 0) {
      // TaskSetManager start lines for every task in the job (other
      // containers ran first, so their launches are already recorded).
      const std::uint64_t resume_at = b.now();
      for (const auto& ts : task_starts) {
        // Clamp into the driver's own timeline so scheduler lines never
        // precede the driver's setup phase.
        b.set_now(std::max(ts.ts, resume_at));
        b.emit("sched.task.start", {ts.task, ts.stage, ts.tid, ts.node, ts.executor});
      }
      b.set_now(std::max(resume_at, b.now()));
      // Reference the last stage that actually ran tasks (small jobs may
      // not reach every planned stage).
      const int covered_stages =
          std::min(stage_count, std::max(1, tasks_total / num_containers));
      const std::string last_stage = std::to_string(covered_stages - 1) + ".0";
      b.emit("driver.ui", {std::to_string(4040)});
      b.emit("job.start", {spec.name == "KMeans" ? "collect" : "count"});
      for (int st = 0; st < stage_count; ++st) {
        b.emit("sched.taskset.add",
               {std::to_string(st) + ".0", std::to_string(tasks_total / stage_count)});
      }
      b.emit("sched.taskset.remove", {"0.0"});
      b.emit("sched.submit", {std::to_string(tasks_total / stage_count), last_stage});
      if (spec.name == "KMeans") {
        for (int it = 1; it <= 3; ++it) {
          b.emit("kmeans.iteration",
                 {std::to_string(it), std::to_string(100 + b.rng().uniform(900))});
        }
      }
      b.emit("sched.stage.done", {last_stage, std::to_string(1 + b.rng().uniform(60))});
      b.emit("sched.job.done", {std::to_string(0), std::to_string(2 + b.rng().uniform(90))});
    }

    // ---- shutdown ----------------------------------------------------------
    // The teardown steps race in real executors; randomizing their order
    // keeps the memory / driver / block groups PARALLEL siblings in the
    // HW-graph (Fig. 8) instead of spuriously nested.
    {
      std::vector<std::string> steps = {"block.stop", "memory.clear"};
      if (b.rng().chance(0.8)) steps.push_back("shutdown.command");
      b.rng().shuffle(steps);
      for (const auto& s : steps) b.emit(s, {});
    }
    b.emit("shutdown.hook.invoke", {});
    b.emit("shutdown.hook.called", {});
    // Slow shutdown under un-tuned configs: rare disassociation heartbeat
    // (§6.4 false-positive mechanism). Tuned memory -> never happens.
    if (!spec.memory_sufficient() || spec.container_memory_mb > spec.required_memory_mb() * 6) {
      if (b.rng().chance(0.04)) b.emit("shutdown.disassociated", {});
    }

    // ---- fault post-processing -------------------------------------------
    const auto truncate_marking = [&](std::uint64_t cutoff) {
      const std::size_t before = b.record_count();
      b.truncate_after(cutoff);
      if (b.record_count() < before) fault_affected = true;
    };
    if (fault.kind == ProblemKind::SessionAbort && ci == abort_victim) {
      truncate_marking(job_start + (b.now() - job_start) / 2);
    }
    if (fault.kind == ProblemKind::NodeFailure && node == fault_host) {
      truncate_marking(fault_time);
    }
    if (fault.kind == ProblemKind::NetworkFailure && node == fault_host) {
      // The victim node's own container loses the driver: logging stops.
      truncate_marking(fault_time + 2000);
    }

    if (fault_affected) result.affected_containers.insert(container);
    if (perf_affected) result.perf_affected_containers.insert(container);
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  };

  // Executors first, the driver container last so it can replay every
  // task launch; timestamps keep the log order realistic.
  for (int ci = 1; ci < num_containers; ++ci) build_container(ci);
  build_container(0);
  return result;
}

}  // namespace intellog::simsys
