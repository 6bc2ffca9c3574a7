#include "simsys/tez_system.hpp"

#include <algorithm>

#include "simsys/event_sim.hpp"

namespace intellog::simsys {

namespace {

TemplateCorpus build_tez_corpus() {
  TemplateCorpus c("tez");
  // --- DAGAppMaster ----------------------------------------------------------
  c.add("am.created", "INFO", "tez.dag.app.DAGAppMaster",
        "Created DAGAppMaster for application {I:APP}", {"dag app master", "application"},
        {"create"});
  c.add("am.submit", "INFO", "tez.dag.api.client.DAGClientServer",
        "Submitting dag to TezSession with applicationId {I:APP}",
        {"dag", "tez session", "application id"}, {"submit"});
  c.add("am.dag.running", "INFO", "tez.dag.app.dag.impl.DAGImpl",
        "DAG {I:DAG} transitioned from NEW to RUNNING", {"dag"}, {"transition"});
  c.add("am.vertex.init", "INFO", "tez.dag.app.dag.impl.VertexImpl",
        "Vertex {I:VERTEX} transitioned from {W} to {W}", {"vertex"}, {"transition"});
  c.add("am.vertex.tasks", "INFO", "tez.dag.app.dag.impl.VertexImpl",
        "numTasks={V} numCompletedTasks={V} numSucceededTasks={V}", {}, {},
        /*natural_language=*/false);
  c.add("am.dag.finished", "INFO", "tez.dag.app.dag.impl.DAGImpl",
        "DAG {I:DAG} finished with state {W}", {"dag", "state"}, {"finish"});
  c.add("am.query.compile", "INFO", "hive.ql.Driver",
        "Compiling query {I:QUERY}", {"query"}, {"compile"});
  c.add("am.query.exec", "INFO", "hive.ql.Driver",
        "Executing query on tez cluster", {"query", "tez cluster"}, {"execute"});

  // --- task containers ---------------------------------------------------------
  c.add("task.init", "INFO", "tez.runtime.task.TezTaskRunner",
        "Initializing task with taskAttemptId {I:ATTEMPT}", {"task", "task attempt id"},
        {"initialize"});
  c.add("task.start", "INFO", "tez.dag.app.dag.impl.TaskAttemptImpl",
        "TaskAttempt {I:ATTEMPT} started on container {I:CONTAINER}",
        {"task attempt", "container"}, {"start"});
  c.add("task.status", "INFO", "tez.runtime.task.TezTaskRunner",
        "taskProgress={V} recordsProcessed={V}", {}, {}, /*natural_language=*/false);
  c.add("task.output.commit", "INFO", "tez.runtime.api.impl.TezOutputContextImpl",
        "Output of vertex {I:VERTEX} committed to {L}", {"output of vertex"}, {"commit"});
  c.add("task.shuffle.assign", "INFO", "tez.runtime.library.common.shuffle.impl.ShuffleManager",
        "Shuffle assigned with {V} inputs", {"shuffle", "input"}, {"assign"});
  c.add("task.copy", "INFO", "tez.runtime.library.common.shuffle.Fetcher",
        "Copying {I:ATTEMPT} output from {L}", {"output"}, {"copy"});
  c.add("task.merge.files", "INFO", "tez.runtime.library.common.sort.impl.TezMerger",
        "Merging {V} files, {V} bytes from disk", {"file", "disk"}, {"merge"});
  // Nominal sentence -> missed operation (Tez has several, §6.2).
  c.add("task.merge.final", "INFO", "tez.runtime.library.common.sort.impl.TezMerger",
        "Final merge of {V} segments", {"final merge", "segment"}, {"merge"});
  c.add("task.complete", "INFO", "tez.dag.app.dag.impl.TaskAttemptImpl",
        "TaskAttempt {I:ATTEMPT} transitioned from RUNNING to SUCCEEDED", {"task attempt"},
        {"transition"});
  // The two vague Hive operator keys the paper quotes verbatim (§6.2):
  // grammatically odd, operations go missing.
  c.add("op.close.done", "INFO", "hive.ql.exec.tez.RecordProcessor",
        "{I:OP} Close done", {}, {"close"});
  c.add("op.finished.closing", "INFO", "hive.ql.exec.tez.RecordProcessor",
        "{I:OP} finished. Closing", {}, {"finish"});

  // --- additional templates ------------------------------------------------------
  c.add("am.query.parse", "INFO", "hive.ql.parse.ParseDriver",
        "Parsing command: {W}", {"command"}, {"parse"});
  c.add("am.query.semantic", "INFO", "hive.ql.parse.SemanticAnalyzer",
        "Semantic analysis completed in {V} ms", {"semantic analysis"}, {"complete"});
  c.add("am.query.jobs", "INFO", "hive.ql.Driver",
        "totalJobs={V} launchedJobs={V}", {}, {}, /*natural_language=*/false);
  c.add("am.dag.running2", "INFO", "tez.dag.app.dag.impl.DAGImpl",
        "Running DAG: {W}", {"dag"}, {"run"});
  c.add("am.vertex.create", "INFO", "tez.dag.app.dag.impl.VertexImpl",
        "Creating vertex {I:VERTEX} for plan node {W}", {"vertex", "plan node"}, {"create"});
  c.add("am.vertex.schedule", "INFO", "tez.dag.app.dag.impl.VertexImpl",
        "Scheduling {V} tasks for vertex {I:VERTEX}", {"task", "vertex"}, {"schedule"});
  c.add("am.route", "INFO", "tez.dag.app.dag.impl.VertexImpl",
        "Routing event {W} to vertex {I:VERTEX}", {"event", "vertex"}, {"route"});
  c.add("am.query.done", "INFO", "hive.ql.Driver",
        "Query {I:QUERY} completed successfully in {V} s", {"query"}, {"complete"});
  c.add("task.localize", "INFO", "tez.runtime.task.TezChild",
        "Localizing resources for container {I:CONTAINER}", {"resource", "container"},
        {"localize"});
  c.add("task.input.open", "INFO", "tez.runtime.api.impl.TezInputContextImpl",
        "Opening input {W} for vertex {I:VERTEX}", {"input", "vertex"}, {"open"});
  c.add("task.output.close", "INFO", "tez.runtime.api.impl.TezOutputContextImpl",
        "Closing output {W} for vertex {I:VERTEX}", {"output", "vertex"}, {"close"});
  c.add("op.init", "INFO", "hive.ql.exec.Operator",
        "Initializing operator {W}", {"operator"}, {"initialize"});
  c.add("op.rows.forward", "INFO", "hive.ql.exec.Operator",
        "{I:OP} forwarding {V} rows", {"row"}, {"forward"});
  c.add("op.rows.process", "INFO", "hive.ql.exec.tez.RecordProcessor",
        "Processed {V} rows in {V} ms", {"row"}, {"process"});
  c.add("op.rows.flush", "INFO", "hive.ql.exec.FileSinkOperator",
        "Flushing {V} rows to sink", {"row", "sink"}, {"flush"});
  c.add("shuffle.threads", "INFO", "tez.runtime.library.common.shuffle.impl.ShuffleManager",
        "Shuffle running with {V} threads", {"shuffle", "thread"}, {"run"});
  c.add("shuffle.fetcher.go", "INFO", "tez.runtime.library.common.shuffle.Fetcher",
        "Fetcher {I:FETCHER} going to fetch from {L}", {"fetcher"}, {"go", "fetch"});
  c.add("task.commit2", "INFO", "tez.runtime.task.TaskRunner2Callable",
        "Committing task output for {I:ATTEMPT}", {"task output"}, {"commit"});
  c.add("task.container.stop", "INFO", "tez.runtime.task.TezChild",
        "Stopping container after task completion", {"container", "task completion"}, {"stop"});
  c.add("task.counters", "INFO", "tez.common.counters.TezCounters",
        "FILE_BYTES_READ={V} HDFS_BYTES_READ={V} SPILLED_RECORDS={V}", {}, {},
        /*natural_language=*/false);

  // --- Hive query-operator pipeline (Tez's key population is dominated by
  // operator logging; Tez logs are short and well formatted, §6.2) --------
  c.add("op.self.init", "INFO", "hive.ql.exec.Operator",
        "Initializing Self operator {I:OP}", {"operator"}, {"initialize"});
  c.add("op.init.done", "INFO", "hive.ql.exec.Operator",
        "Initialization of operator {I:OP} done", {"initialization of operator"}, {"do"});
  c.add("op.map.begin", "INFO", "hive.ql.exec.MapOperator",
        "Executing map operator for vertex {I:VERTEX}", {"map operator", "vertex"},
        {"execute"});
  c.add("op.filter", "INFO", "hive.ql.exec.FilterOperator",
        "Filter operator {I:OP} passed {V} rows", {"filter operator", "row"}, {"pass"});
  c.add("op.join", "INFO", "hive.ql.exec.CommonJoinOperator",
        "Join operator {I:OP} produced {V} rows", {"join operator", "row"}, {"produce"});
  c.add("op.groupby", "INFO", "hive.ql.exec.GroupByOperator",
        "GroupBy operator {I:OP} aggregated {V} rows", {"group by operator", "row"},
        {"aggregate"});
  c.add("op.reduce.sink", "INFO", "hive.ql.exec.ReduceSinkOperator",
        "Reduce sink operator {I:OP} emitted {V} records", {"reduce sink operator", "record"},
        {"emit"});
  c.add("op.file.sink", "INFO", "hive.ql.exec.FileSinkOperator",
        "File sink operator writing to {L}", {"file sink operator"}, {"write"});
  c.add("op.limit", "INFO", "hive.ql.exec.LimitOperator",
        "Limit operator {I:OP} reached limit {V}", {"limit operator", "limit"}, {"reach"});
  c.add("op.hashtable", "INFO", "hive.ql.exec.MapJoinOperator",
        "Loading hash table from {L}", {"hash table"}, {"load"});
  c.add("op.plan.cache", "INFO", "hive.ql.Driver",
        "Using cached plan for query {I:QUERY}", {"plan", "query"}, {"use"});
  c.add("am.session.open", "INFO", "tez.client.TezClient",
        "Opening Tez session with id {I:SESSION}", {"tez session"}, {"open"});
  c.add("am.container.launch", "INFO", "tez.dag.app.launcher.ContainerLauncherImpl",
        "Launching container {I:CONTAINER} for execution", {"container", "execution"},
        {"launch"});
  c.add("am.container.reuse", "INFO", "tez.dag.app.rm.container.AMContainerImpl",
        "Reusing container {I:CONTAINER} for next task", {"container", "next task"},
        {"reuse"});
  c.add("am.taskcomm", "INFO", "tez.dag.app.TaskCommunicatorManager",
        "Registered task communicator for vertex {I:VERTEX}", {"task communicator", "vertex"},
        {"register"});
  // Clause-less status line (stays an Intel Key, no operation).
  c.add("shuffle.input.ready", "INFO",
        "tez.runtime.library.common.shuffle.impl.ShuffleManager",
        "Input {W} ready for consumption at vertex {I:VERTEX}",
        {"input", "consumption", "vertex"}, {});

  // --- anomaly-phase templates -------------------------------------------------
  c.add("task.fetch.fail", "ERROR", "tez.runtime.library.common.shuffle.Fetcher",
        "Failed to connect to {L} for input {I:ATTEMPT}", {"input"}, {"fail", "connect"});
  c.add("task.fetch.retry", "WARN", "tez.runtime.library.common.shuffle.Fetcher",
        "Retrying connect to {L} after {V} ms", {}, {"retry", "connect"});
  // Case 2.2: spill lines carrying a disk path (never seen in tuned training).
  c.add("task.spill.write", "WARN", "tez.runtime.library.common.sort.impl.PipelinedSorter",
        "Spill file written to {L}", {"spill file"}, {"write"});
  c.add("task.spill.records", "WARN", "tez.runtime.library.common.sort.impl.PipelinedSorter",
        "Spilling {V} records to disk because buffer is full", {"record", "disk", "buffer"},
        {"spill"});
  // Rare slow path (over-allocated detection configs only): §6.4 FP source.
  c.add("task.wait.interrupt", "WARN", "tez.runtime.task.TezTaskRunner",
        "Interrupted while waiting for task completion", {"task completion"}, {"interrupt",
        "wait"});
  return c;
}

}  // namespace

const TemplateCorpus& tez_corpus() {
  static const TemplateCorpus corpus = build_tez_corpus();
  return corpus;
}

JobResult TezJobSim::run(const JobSpec& spec, const ClusterSpec& cluster,
                         const FaultPlan& fault) const {
  JobResult result;
  result.spec = spec;
  result.fault = fault;

  common::Rng rng(spec.seed ^ 0x74657aULL);
  const TemplateCorpus& corpus = tez_corpus();

  const int num_containers = std::clamp(1 + spec.input_gb, 1, 35);
  const int num_vertices = 2 + static_cast<int>(rng.uniform(4));
  const bool spill_mode = !spec.memory_sufficient();

  const std::uint64_t job_start = 3600000ULL * (1 + rng.uniform(20));
  const std::uint64_t approx_span = 4000 + static_cast<std::uint64_t>(num_containers) * 300;
  const std::uint64_t fault_time =
      job_start + static_cast<std::uint64_t>(fault.at_fraction * static_cast<double>(approx_span));
  const std::string fault_host =
      fault.target_node >= 0 ? cluster.node_name(fault.target_node) : "";

  const std::string app_id = "application_" + std::to_string(1550100000 + spec.seed % 100000) +
                             "_" + std::to_string(1 + spec.seed % 89);
  const std::string dag_id = "dag_" + std::to_string(1550100000 + spec.seed % 100000) + "_1";
  const auto attempt_id = [&](int t) {
    return "attempt_" + std::to_string(1550100000 + spec.seed % 100000) + "_1_" +
           std::to_string(t) + "_0";
  };
  const auto container_id = [&](int i) {
    return "container_" + std::to_string(spec.seed % 100000) + "_03_" + std::to_string(i);
  };
  const auto vertex_id = [&](int v) { return "vertex_" + std::to_string(v); };

  const int total_containers = 1 + num_containers;
  const int abort_victim = fault.kind == ProblemKind::SessionAbort
                               ? static_cast<int>(rng.uniform(total_containers))
                               : -1;
  std::vector<int> placement(static_cast<std::size_t>(total_containers));
  for (auto& p : placement) p = static_cast<int>(rng.uniform(cluster.num_workers));

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

  // ---- DAGAppMaster session ----------------------------------------------
  {
    SessionBuilder b(corpus, container_id(1), cluster.node_name(placement[0]), job_start,
                     rng.fork());
    bool fault_affected = false;
    const std::string query_id = "query_" + std::to_string(1 + spec.seed % 22);
    b.emit("am.created", {app_id});
    b.emit("am.session.open", {"session_" + std::to_string(spec.seed % 1000)});
    b.emit("am.query.parse", {spec.seed % 3 == 0 ? "SELECT" : (spec.seed % 3 == 1 ? "INSERT" : "ANALYZE")});
    b.emit("am.query.semantic", {std::to_string(50 + b.rng().uniform(900))});
    b.emit("am.query.compile", {query_id});
    b.emit("am.query.jobs", {"1", "1"});
    b.emit("am.query.exec", {});
    b.emit("am.submit", {app_id});
    b.emit("am.dag.running", {dag_id});
    b.emit("am.dag.running2", {spec.name});
    if (b.rng().chance(0.2)) b.emit("op.plan.cache", {query_id});
    for (int ci2 = 0; ci2 < num_containers; ++ci2) {
      b.emit("am.container.launch", {container_id(2 + ci2)});
      if (b.rng().chance(0.3)) b.emit("am.container.reuse", {container_id(2 + ci2)});
    }
    for (int v = 0; v < num_vertices; ++v) {
      b.emit("am.vertex.create", {vertex_id(v), "Map-" + std::to_string(v + 1)});
      b.emit("am.vertex.init", {vertex_id(v), "NEW", "INITED"});
      if (b.rng().chance(0.4)) b.emit("am.taskcomm", {vertex_id(v)});
      b.emit("am.vertex.schedule",
             {std::to_string(1 + num_containers / num_vertices), vertex_id(v)});
      b.emit("am.vertex.init", {vertex_id(v), "INITED", "RUNNING"});
      b.emit("am.vertex.tasks",
             {std::to_string(num_containers), "0", "0"});
      if (b.rng().chance(0.6)) {
        b.emit("am.route", {"DATA_MOVEMENT_EVENT", vertex_id(v)});
      }
    }
    b.advance(2000, static_cast<std::uint64_t>(approx_span));
    for (int v = 0; v < num_vertices; ++v) {
      b.emit("am.vertex.init", {vertex_id(v), "RUNNING", "SUCCEEDED"});
    }
    b.emit("am.dag.finished", {dag_id, "SUCCEEDED"});
    b.emit("am.query.done", {query_id, std::to_string(5 + b.rng().uniform(300))});
    apply_faults(b, 0, fault_affected);
    if (fault_affected) result.affected_containers.insert(b.container_id());
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  }

  // ---- task containers ---------------------------------------------------
  for (int ci = 0; ci < num_containers; ++ci) {
    const int idx = 1 + ci;
    SessionBuilder b(corpus, container_id(2 + ci),
                     cluster.node_name(placement[static_cast<std::size_t>(idx)]),
                     job_start + 2500 + rng.uniform(6000), rng.fork());
    const std::string node = b.node();
    bool fault_affected = false;
    bool perf_affected = false;
    b.emit("task.localize", {b.container_id()});
    const int tasks_here = 4 + static_cast<int>(b.rng().uniform(3 + spec.input_gb / 2));
    // Two task slots run concurrently (tez.am.container.reuse with
    // parallelism), so task logs interleave.
    std::vector<SessionBuilder> slots;
    slots.push_back(b.fork(5));
    slots.push_back(b.fork(19));
    for (int t = 0; t < tasks_here; ++t) {
      SessionBuilder& b2 = slots[static_cast<std::size_t>(t % 2)];
      const int task_no = ci * 6 + t;
      const int vertex = task_no % num_vertices;
      b2.emit("task.init", {attempt_id(task_no)});
      b2.emit("task.start", {attempt_id(task_no), b2.container_id()});
      b2.emit("task.input.open", {"MRInput-0", vertex_id(vertex)});
      b2.emit("op.init", {"TS_" + std::to_string(vertex)});
      b2.emit("op.self.init", {std::to_string(vertex * 10)});
      b2.emit("op.init.done", {std::to_string(vertex * 10)});
      if (vertex == 0) b2.emit("op.map.begin", {vertex_id(vertex)});
      if (vertex > 0) {
        b2.emit("task.shuffle.assign", {std::to_string(1 + b2.rng().uniform(24))});
        b2.emit("shuffle.threads", {std::to_string(2 + b2.rng().uniform(8))});
        if (b2.rng().chance(0.4)) {
          b2.emit("shuffle.input.ready", {"MRInput-0", vertex_id(vertex)});
        }
        const int upstream = static_cast<int>(b2.rng().uniform(num_containers));
        const std::string source_host =
            cluster.node_name(placement[static_cast<std::size_t>(1 + upstream)]);
        const bool fault_hit = (fault.kind == ProblemKind::NetworkFailure ||
                                fault.kind == ProblemKind::NodeFailure) &&
                               b2.now() >= fault_time && source_host == fault_host;
        if (fault_hit) {
          for (int att = 0; att < 2; ++att) {
            b2.emit("task.fetch.fail", {source_host + ":13563", attempt_id(task_no)},
                   /*injected=*/true);
            b2.emit("task.fetch.retry", {source_host + ":13563", "5000"}, /*injected=*/true);
          }
          fault_affected = true;
        } else {
          b2.emit("shuffle.fetcher.go",
                 {std::to_string(1 + b2.rng().uniform(8)), source_host + ":13563"});
          b2.emit("task.copy", {attempt_id(task_no), source_host + ":13563"});
          b2.emit("task.merge.files", {std::to_string(2 + b2.rng().uniform(14)),
                                      std::to_string(10000 + b2.rng().uniform(4000000))});
        }
      }
      b2.emit("op.rows.process", {std::to_string(10000 + b2.rng().uniform(900000)),
                                 std::to_string(50 + b2.rng().uniform(2000))});
      if (b2.rng().chance(0.5)) {
        b2.emit("op.filter", {std::to_string(vertex * 10 + 1),
                              std::to_string(1000 + b2.rng().uniform(90000))});
      }
      if (vertex > 0 && b2.rng().chance(0.4)) {
        b2.emit("op.hashtable", {"/hadoop/yarn/local/hashtable_" +
                                 std::to_string(task_no) + ".ht"});
        b2.emit("op.join", {std::to_string(vertex * 10 + 2),
                            std::to_string(500 + b2.rng().uniform(50000))});
      }
      if (b2.rng().chance(0.4)) {
        b2.emit("op.groupby", {std::to_string(vertex * 10 + 3),
                               std::to_string(100 + b2.rng().uniform(5000))});
      }
      if (vertex + 1 < num_vertices) {
        b2.emit("op.reduce.sink", {std::to_string(vertex * 10 + 4),
                                   std::to_string(100 + b2.rng().uniform(20000))});
      } else if (b2.rng().chance(0.6)) {
        b2.emit("op.file.sink",
                {"hdfs://master:9000/tmp/hive/sink_" + std::to_string(task_no)});
      }
      if (b2.rng().chance(0.15)) {
        b2.emit("op.limit", {std::to_string(vertex * 10 + 5),
                             std::to_string(100 * (1 + b2.rng().uniform(10)))});
      }
      if (b2.rng().chance(0.6)) {
        b2.emit("op.rows.forward", {std::to_string(vertex),
                                   std::to_string(1000 + b2.rng().uniform(90000))});
      }
      if (b2.rng().chance(0.4)) {
        b2.emit("op.rows.flush", {std::to_string(100 + b2.rng().uniform(9000))});
      }
      if (b2.rng().chance(0.5)) {
        b2.emit("task.status", {std::to_string(b2.rng().uniform(100)),
                               std::to_string(b2.rng().uniform(2000000))});
      }
      if (spill_mode && b2.rng().chance(0.6)) {
        const std::string spill_path =
            "/hadoop/yarn/local/usercache/appcache/" + app_id + "/spill_" +
            std::to_string(task_no) + ".out";
        b2.emit("task.spill.records", {std::to_string(50000 + b2.rng().uniform(500000))});
        b2.emit("task.spill.write", {spill_path});
        perf_affected = true;
      }
      if (vertex > 0) b2.emit("task.merge.final", {std::to_string(1 + b2.rng().uniform(8))});
      b2.emit("task.output.commit",
             {vertex_id(vertex), "hdfs://master:9000/tmp/hive/out_" + std::to_string(task_no)});
      if (b2.rng().chance(0.5)) b2.emit("task.commit2", {attempt_id(task_no)});
      b2.emit("task.output.close", {"MROutput-0", vertex_id(vertex)});
      b2.emit("op.finished.closing", {std::to_string(vertex)});
      b2.emit("op.close.done", {std::to_string(vertex)});
      if (b2.rng().chance(0.5)) {
        b2.emit("task.counters", {std::to_string(b2.rng().uniform(100000000)),
                                 std::to_string(b2.rng().uniform(100000000)),
                                 std::to_string(b2.rng().uniform(100000))});
      }
      if (spec.container_memory_mb > spec.required_memory_mb() * 6 && b2.rng().chance(0.008)) {
        b2.emit("task.wait.interrupt", {});
      }
      b2.emit("task.complete", {attempt_id(task_no)});
      b2.advance(200, 2500);
    }
    for (auto& slot : slots) b.absorb(std::move(slot));
    b.emit("task.container.stop", {});
    apply_faults(b, idx, fault_affected);
    if (fault_affected) result.affected_containers.insert(b.container_id());
    if (perf_affected) result.perf_affected_containers.insert(b.container_id());
    result.sessions.push_back(b.finish(&result.truth.emplace_back()));
  }

  return result;
}

}  // namespace intellog::simsys
