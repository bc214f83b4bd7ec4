package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.reptile.DimRankResult
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** The benchmark's entry point: one closed-loop client issuing engine
  * calls from one thread, against Spark in local mode.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Set-up (Spark session start, data generation, fact caching and the
  * warm-up calls) runs `SetupReps` times; the last session is kept. The
  * dense references are computed next, then calls run until their summed
  * time reaches `--seconds`. With `--trace 0` it prints the end-to-end
  * metrics; with `--trace 1` each call runs twice, through the engine and
  * through [[Replay]] with layer spans, and it prints the per-layer
  * metrics. The last stdout line is the JSON result.
  */
object Main {
  // Two task threads leave cores to the JIT, GC and listener threads: on a
  // 4-vCPU machine, local[2] gave covid_issues about half the run-to-run
  // spread of local[4].
  val Cores: Int = math.min(2, Runtime.getRuntime.availableProcessors)
  val ShufflePartitions = 2
  val SetupReps = 3

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean)

  private final class Stop extends RuntimeException
  /** Ends a pass whose call threw: later calls of the pass depend on it. */
  private final class CallFailed(cause: Throwable) extends RuntimeException(cause)

  def main(args: Array[String]): Unit = {
    val code =
      try {
        val kv = args.grouped(2).map {
          case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
          case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
        }.toMap
        def arg(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
        val opts = Opts(arg("workload"), arg("seed").toLong, arg("seconds").toDouble, arg("trace") == "1")
        require(opts.seconds > 0, "--seconds must be positive")
        new Main(opts).run()
        0
      } catch { case e: Throwable => e.printStackTrace(); 1 }
    // Spark leaves non-daemon threads behind; exit explicitly.
    sys.exit(code)
  }

  def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2.0
  }

  /** The highest percentile with at least ten samples above it, and its
    * percentile rank; with ten samples or fewer, the maximum (p100).
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    if (s.size > 10) (s(s.size - 11), 100.0 * (s.size - 10) / s.size) else (s.last, 100.0)
  }

  def json(v: Any): String = v match {
    case s: String    => "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    case b: Boolean   => b.toString
    case n: Long      => n.toString
    case n: Int       => n.toString
    case d: Double    => require(!d.isNaN && !d.isInfinite, s"non-finite metric $d"); d.toString
    case m: Seq[_]    => m.map { case (k, x) => json(k) + ": " + json(x) }.mkString("{", ", ", "}")
    case other        => throw new IllegalArgumentException(s"no JSON for $other")
  }
}

private final class Main(opts: Main.Opts) {
  import Main._

  private val wl = Workload(opts.workload, opts.seed)
  private var spark: SparkSession = _
  private var counters: SparkCounters = _
  private val refs = mutable.HashMap.empty[String, Vector[DimRankResult]]
  private val refModels: Replay.Models = mutable.HashMap.empty
  private var attempted = 0
  private var failed = 0
  private var mismatches = 0

  def run(): Unit = {
    println(s"workload ${opts.workload} seed ${opts.seed} seconds ${opts.seconds} trace ${if (opts.trace) 1 else 0}")
    try {
      val setupS = (1 to SetupReps).map(_ => setup())
      println(s"settings master local[$Cores] shuffle_partitions $ShufflePartitions " +
        s"max_heap_mb ${Runtime.getRuntime.maxMemory >> 20} setup_reps $SetupReps warmup_calls ${wl.warmupCalls}")
      wl.settings.foreach { case (k, v) => println(s"settings $k $v") }
      // One pass fills the dense references; a workload checked against
      // the paper has none, and its pass stops at the first call.
      val tRef = System.nanoTime()
      try wl.pass(spark, spec => if (spec.paperCheck.isEmpty) reference(spec) else throw new Stop)
      catch { case _: Stop => }
      println(f"references ${(System.nanoTime() - tRef) / 1e9}%.3f s (${refs.size} distinct calls)")
      System.gc()
      val metrics = if (opts.trace) traced() else untraced(setupS)
      val correct = failed == 0 && mismatches == 0
      println(json(Seq("correct" -> correct, "attempted" -> attempted, "failed" -> failed,
        "metrics" -> metrics.map { case (k, (v, unit)) => k -> Seq("value" -> v, "unit" -> unit) })))
    } finally if (spark != null) spark.stop()
  }

  /** One set-up repetition: a fresh session, the workload's inputs and the
    * warm-up calls. Returns its seconds.
    */
  private def setup(): Double = {
    val t0 = System.nanoTime()
    if (spark != null) spark.stop()
    spark = session()
    counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    wl.setup(spark)
    var calls = 0
    if (wl.warmupCalls > 0) try wl.pass(spark, spec => {
      if (calls == wl.warmupCalls) throw new Stop
      calls += 1
      spec.query.run(spark)
    }) catch { case _: Stop => }
    (System.nanoTime() - t0) / 1e9
  }

  private def reference(spec: CallSpec): Vector[DimRankResult] =
    refs.getOrElseUpdate(spec.key, Replay(spec.query, Replay.dense, Tracer.off, refModels))

  private def isRight(spec: CallSpec, out: Vector[DimRankResult]): Boolean = {
    val ok = try spec.paperCheck match {
      case Some(check) => check(out)
      case None        => Check.sameCall(out, reference(spec), Check.sameTop)
    } catch { case NonFatal(_) => false }
    if (!ok) System.err.println(s"wrong result for call ${spec.key}")
    ok
  }

  /** Runs whole passes until the timed calls add up to `--seconds`, so
    * every run times the same mix of calls. `call` runs one engine call and
    * returns (result, ms of timed work).
    */
  private def loop(call: CallSpec => (Vector[DimRankResult], Double)): Unit = {
    var timedMs = 0.0
    while (timedMs < opts.seconds * 1000) {
      try wl.pass(spark, spec => {
        attempted += 1
        val t0 = System.nanoTime()
        val (out, ms) =
          try call(spec)
          catch { case NonFatal(e) =>
            failed += 1
            timedMs += (System.nanoTime() - t0) / 1e6
            System.err.println(s"call ${spec.key} threw: $e")
            throw new CallFailed(e)
          }
        timedMs += ms
        if (!isRight(spec, out)) failed += 1
        out
      }) catch { case _: CallFailed => }
    }
  }

  private def untraced(setupS: Seq[Double]): Seq[(String, (Double, String))] = {
    val callMs = ArrayBuffer.empty[Double]
    val firstCallMs = ArrayBuffer.empty[Double]
    Jvm.resetHeapPeaks()
    loop { spec =>
      val t0 = System.nanoTime()
      val out = spec.query.run(spark)
      val ms = (System.nanoTime() - t0) / 1e6
      callMs += ms
      if (spec.firstOnFact) firstCallMs += ms
      (out, ms)
    }
    val peakMb = Jvm.heapPeakBytes / 1048576.0
    require(callMs.nonEmpty, "no call completed")
    val (tailMs, tailPct) = tail(callMs.toSeq)
    val firstMs = median(firstCallMs.toSeq)
    println(f"setup_s ${median(setupS)}%.3f s (median of ${setupS.size}: ${setupS.map(s => f"$s%.3f").mkString(", ")})")
    println(f"call_ms_p50 ${median(callMs.toSeq)}%.1f ms (${callMs.size} calls: ${callMs.map(m => f"$m%.0f").mkString(" ")})")
    println(f"call_ms_tail $tailMs%.1f ms (p$tailPct%.1f of ${callMs.size} calls)")
    println(f"calls_per_s ${callMs.size / (callMs.sum / 1000)}%.3f 1/s (${callMs.sum / 1000}%.1f s timed)")
    println(f"first_call_ms $firstMs%.1f ms (median of ${firstCallMs.size})")
    println(f"peak_heap_mb $peakMb%.1f MB")
    println(f"fail_rate ${failed.toDouble / attempted}%.4f ($failed of $attempted calls)")
    Seq(
      "setup_s" -> (median(setupS), "s"),
      "call_ms_p50" -> (median(callMs.toSeq), "ms"),
      "call_ms_tail" -> (tailMs, "ms"),
      "calls_per_s" -> (callMs.size / (callMs.sum / 1000), "1/s"),
      "first_call_ms" -> (firstMs, "ms"),
      "peak_heap_mb" -> (peakMb, "MB"),
    )
  }

  private val Layers = Seq("frep.hier", "reptile.stats", "reptile.featurize", "fmatrix.build",
    "reptile.buildy", "model.em", "model.predict", "reptile.score")

  private def traced(): Seq[(String, (Double, String))] = {
    val engineMs = ArrayBuffer.empty[Double]
    val tracedMs = ArrayBuffer.empty[Double]
    val perCall = ArrayBuffer.empty[Map[String, Double]]
    val layerSum = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    loop { spec =>
      val t0 = System.nanoTime()
      val out = spec.query.run(spark)
      val eMs = (System.nanoTime() - t0) / 1e6

      val tr = new CallTrace(spark, counters)
      val w0 = tr.drained()
      tr.drainMs = 0.0
      val (a0, g0) = (Jvm.allocatedBytes, Jvm.gcMs)
      val t1 = System.nanoTime()
      val replayed = Replay(spec.query, Replay.factorized, tr)
      val rMs = (System.nanoTime() - t1) / 1e6
      val (a1, g1) = (Jvm.allocatedBytes, Jvm.gcMs)
      val innerDrainMs = tr.drainMs
      val work = tr.drained() - w0

      if (!Check.sameCall(replayed, out, Check.sameRanking)) {
        mismatches += 1
        System.err.println(s"replay differs from the engine on call ${spec.key}")
      }
      val layerJobs = Layers.map(l => tr.layerWork(l).jobs).sum
      if (layerJobs != work.jobs) {
        mismatches += 1
        System.err.println(s"call ${spec.key}: layer jobs $layerJobs != listener jobs ${work.jobs}")
      }
      engineMs += eMs
      tracedMs += rMs
      Layers.foreach(l => layerSum(l) += tr.layerMs(l))
      layerSum("call") += rMs
      val c = tr.counts
      perCall += Layers.map(l => s"$l.ms" -> tr.layerMs(l)).toMap ++ Map(
        "frep.hier.jobs" -> tr.layerWork("frep.hier").jobs.toDouble,
        "frep.hier.rows" -> c("frep.hier.rows"),
        "reptile.stats.jobs" -> tr.layerWork("reptile.stats").jobs.toDouble,
        "reptile.stats.groups" -> c("reptile.stats.groups"),
        "reptile.featurize.jobs" -> tr.layerWork("reptile.featurize").jobs.toDouble,
        "reptile.featurize.cols" -> c("reptile.featurize.cols"),
        "fmatrix.n" -> c("fmatrix.n"),
        "fmatrix.m" -> c("fmatrix.m"),
        "fmatrix.clusters" -> c("fmatrix.clusters"),
        "reptile.buildy.fill" -> c("reptile.buildy.nonempty") / c("fmatrix.n"),
        "model.em.iters" -> c("model.em.iters"),
        "model.em.ms_per_iter" -> tr.layerMs("model.em") / c("model.em.iters"),
        "reptile.score.candidates" -> c("reptile.score.candidates"),
        "spark.jobs" -> work.jobs.toDouble,
        "spark.tasks" -> work.tasks.toDouble,
        "spark.job_wall_ms" -> work.jobWallMs,
        "spark.task_run_ms" -> work.taskRunMs,
        "spark.busy_ratio" -> (if (work.jobWallMs > 0) work.taskRunMs / work.jobWallMs else 0.0),
        "spark.shuffle_mb" -> work.shuffleBytes / 1048576.0,
        "jvm.gc_ms" -> (g1 - g0).toDouble,
        "jvm.alloc_mb" -> (a1 - a0) / 1048576.0,
        "trace.unattributed_ms" -> (rMs - innerDrainMs - Layers.map(tr.layerMs).sum),
      )
      (out, eMs + rMs)
    }
    require(perCall.nonEmpty, "no call completed")
    val overhead = median(tracedMs.toSeq) - median(engineMs.toSeq)
    println(f"traced call_ms_p50 ${median(tracedMs.toSeq)}%.1f ms, untraced ${median(engineMs.toSeq)}%.1f ms " +
      f"(${perCall.size} calls)")
    Layers.foreach(l => println(f"share $l ${100 * layerSum(l) / layerSum("call")}%.1f%% of traced call time"))
    val sparkSide = Seq("frep.hier", "reptile.stats", "reptile.featurize").map(layerSum).sum / layerSum("call")
    println(f"share spark layers (frep.hier + reptile.stats + reptile.featurize) ${100 * sparkSide}%.1f%%")
    println(f"replay mismatches or job-count mismatches: $mismatches of ${perCall.size} calls")
    val names = perCall.head.keys.toSeq.sorted
    val rows = names.map(k => k -> median(perCall.map(_(k)).toSeq)) :+ ("trace.overhead_ms" -> overhead)
    rows.foreach { case (k, v) => println(f"$k $v%.4f") }
    rows.map { case (k, v) => k -> (v, unitOf(k)) }
  }

  private def unitOf(metric: String): String =
    if (metric.endsWith("_ms") || metric.endsWith(".ms")) "ms"
    else if (metric.endsWith("_mb")) "MB"
    else if (metric.endsWith("ratio") || metric.endsWith("fill")) "ratio"
    else if (metric.endsWith("ms_per_iter")) "ms"
    else "count"
}
