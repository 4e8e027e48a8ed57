package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{DaskMeans, KMeans}
import repro.spark.{DistributedDaskMeans, Simplify}
import repro.spatial.SpatialData

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Samples per metric name. */
final class Metrics {
  private val samples = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]

  def add(name: String, v: Double): Unit = samples.getOrElseUpdate(name, ArrayBuffer.empty) += v

  def apply(name: String): Seq[Double] = samples.getOrElse(name, sys.error(s"metric $name has no sample")).toSeq

  def median(name: String): Double = Stats.median(apply(name))

  def names: Seq[String] = samples.keys.toSeq
}

/** One benchmark workload: a dataset stand-in, its size and the call made.
  * The dataset is the generator's default instance of `dataset`; the seed
  * of a run picks the initial centroids.
  *
  * @param setups set-up repetitions per process (the first also loads
  *               classes and compiles code)
  */
final case class Workload(
    name: String,
    dataset: String,
    n: Long,
    k: Int,
    maxIters: Int,
    lift: Boolean,
    setups: Int,
) {
  val leafCapacity = 30
}

object Workload {
  // Three set-ups, so that the reported median is a warm one.
  def apply(name: String, smoke: Boolean): Workload = (name, smoke) match {
    case ("tdrive-2d-k5000", false)    => Workload(name, "T-drive", 100000, 5000, 10, lift = false, setups = 3)
    case ("tdrive-2d-k5000", true)     => Workload(name, "T-drive", 2000, 50, 4, lift = false, setups = 2)
    case ("argopc-3d-simplify", false) => Workload(name, "Argo-PC", 200000, 500, 10, lift = true, setups = 3)
    case ("argopc-3d-simplify", true)  => Workload(name, "Argo-PC", 2000, 25, 4, lift = true, setups = 2)
    case _ => throw new IllegalArgumentException(s"unknown workload $name")
  }
}

final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, smoke: Boolean)

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, trace,
      kv.getOrElse("smoke", "0") == "1")
  }
}

/** Runs one workload in this JVM: set-up, a once-per-process verification,
  * then timed runs (or traced runs) in a closed loop on the calling thread.
  */
final class Bench(w: Workload, o: Opts) {
  /** Scratch space of the run, relative to the working directory. */
  private val outDir = ".bench_build"
  private val nproc = Runtime.getRuntime.availableProcessors
  private var spark: SparkSession = _
  private var df: DataFrame = _
  private var data: Array[Array[Double]] = _
  private var init: Array[Array[Double]] = _
  private var warm: Any = _
  private val m = new Metrics
  private val warmupCalls = 5
  private val tr = new Trace
  private var attempted = 0
  private var failed = 0

  private def log(s: String): Unit = println(s"# $s")

  private def secondsOf[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e9)
  }

  private def startSession(): SparkSession = {
    val local = Paths.get(outDir, "spark-local").toAbsolutePath.toString
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local)
      .config("spark.sql.warehouse.dir", Paths.get(outDir, "spark-warehouse").toAbsolutePath.toString)
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def serialRun(start: Array[Array[Double]], maxIters: Int = w.maxIters): Outcome =
    Outcome.of(new DaskMeans(leafCapacity = w.leafCapacity).run(data, w.k, maxIters, start))

  private def simplifyRun(): Simplified =
    Simplified.of(Simplify.simplify(df, w.k, w.maxIters, w.leafCapacity, o.seed).collect())

  /** Session start, input generation and one warm-up call. */
  private def setup(last: Boolean): Unit = {
    val (_, total) = secondsOf {
      spark = startSession()
      val (_, gen) = secondsOf {
        df = SpatialData.dataset(spark, w.dataset, w.n).persist()
        df.count()
        if (!w.lift) data = SpatialData.collectPoints(df)
      }
      m.add("spatial.generate_s", gen)
      if (w.lift) warm = simplifyRun()
      else {
        init = KMeans.initCentroids(data, w.k, o.seed)
        warm = serialRun(init)
      }
    }
    m.add("setup_s", total)
    if (!last) { spark.stop(); spark = null }
  }

  /** Counts a failed check as a failed operation. */
  private def checked(what: String)(body: => Unit): Unit =
    try body
    catch { case e: CheckFailed => failed += 1; log(s"FAILED $what: ${e.getMessage}") }

  /** Checks `ref`, the serial outcome from `start`: its last step is exact. */
  private def verifySerial(ref: Outcome, start: Array[Array[Double]]): Unit = {
    val prev = if (ref.iterations > 1) serialRun(start, ref.iterations - 1).centroids else start
    val ties = Check.lastStep(data, prev, ref)
    log(s"verified: last of ${ref.iterations} steps exact against a brute-force scan, centroids are member means, ties=$ties")
  }

  def run(): String = {
    for (r <- 1 to w.setups) setup(r == w.setups)

    // Once per process: check the reference outcome the timed runs must equal.
    var ref: Outcome = null
    var liftDistances = 0L
    attempted += 1
    val (_, verifyS) = secondsOf {
      checked("verification") {
        if (w.lift) {
          data = SpatialData.collectPoints(df)
          init = DistributedDaskMeans.initialCentroids(df, w.k, o.seed)
          ref = serialRun(init)
          verifySerial(ref, init)
          Check.simplified(warm.asInstanceOf[Simplified], ref, w.n, "Simplify")
          val (replay, d) = Layers.simplify(df, w.k, w.maxIters, w.leafCapacity, o.seed, None, None, new Trace, new Metrics)
          liftDistances = d
          sameSimplified(replay, warm.asInstanceOf[Simplified], "Simplify replay")
        } else {
          ref = warm.asInstanceOf[Outcome]
          verifySerial(ref, init)
        }
      }
    }
    m.add("check.verify_s", verifyS)
    if (ref == null) ref = if (w.lift) serialRun(init) else warm.asInstanceOf[Outcome]

    // Calls keep getting faster for several calls after set-up while the JIT
    // compiles (on Spark by up to a third over ten calls), so a few untimed
    // calls come first.
    val (_, warmupS) = secondsOf { for (_ <- 1 to warmupCalls) if (w.lift) simplifyRun() else serialRun(init) }
    log(f"warm-up: $warmupCalls calls in $warmupS%.3f s")
    System.gc()

    val loopSeconds = if (o.trace) o.seconds * 0.4 else o.seconds
    timedLoop(ref, loopSeconds, 3, liftDistances)
    if (o.trace) tracedLoop(ref, o.seconds - loopSeconds)
    report()
  }

  private def sameSimplified(got: Simplified, want: Simplified, what: String): Unit =
    Check.require(got.weights.sameElements(want.weights) &&
      got.centroids.indices.forall(j => java.util.Arrays.equals(got.centroids(j), want.centroids(j))),
      s"$what differs from Simplify's output")

  /** Closed loop of untraced calls, each checked against the verified
    * outcome `ref`.
    */
  private def timedLoop(ref: Outcome, seconds: Double, minSamples: Int, liftDistances: Long): Unit = {
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var runs = 0
    // A program slower than expected still ends within four times the budget.
    while (runs < 1 || ((runs < minSamples || elapsed < seconds) && elapsed < 4 * seconds)) {
      runs += 1
      attempted += 1
      val a0 = if (w.lift) Alloc.allThreads() else Alloc.thread()
      val (out, s) = secondsOf { if (w.lift) simplifyRun() else serialRun(init) }
      val a1 = if (w.lift) Alloc.allThreads() else Alloc.thread()
      m.add("fit_s", s)
      m.add("alloc_mb", (a1 - a0) / 1e6)
      val (_, checkS) = secondsOf {
        checked(s"timed run $runs") {
          out match {
            case r: Outcome => Check.identical(r, ref, "timed run"); m.add("distances", r.distances.toDouble)
            case r: Simplified =>
              sameSimplified(r, warm.asInstanceOf[Simplified], "timed run")
              Check.simplified(r, ref, w.n, "timed run")
              m.add("distances", liftDistances.toDouble)
          }
        }
      }
      m.add("check.per_run_ms", checkS * 1e3)
    }
  }

  /** Traced replays: the serial `DaskMeans.run` and the Spark `Simplify` on
    * this workload's input, each checked against the untraced outcome. Both
    * run on every workload because a traced run reports every per-layer
    * metric; the serial workload gives `Simplify` its own initial centroids.
    */
  private def tracedLoop(ref: Outcome, seconds: Double): Unit = {
    val collector = new SparkCollector
    spark.sparkContext.addSparkListener(collector)
    attempted += 1
    checked("memory model") { Layers.memory(data, w.k, init, w.leafCapacity, m) }
    val t0 = System.nanoTime()
    var done = 0
    while (done < 1 || (System.nanoTime() - t0) / 1e9 < seconds) {
      attempted += 1
      checked(s"traced run ${done + 1}") {
        val serial = Layers.serial(data, w.k, w.maxIters, init, w.leafCapacity, tr, m)
        Check.identical(serial, ref, "traced DaskMeans replay")
        val (lifted, _) = Layers.simplify(df, w.k, w.maxIters, w.leafCapacity, o.seed,
          if (w.lift) None else Some(init), Some(collector), tr, m)
        if (w.lift) sameSimplified(lifted, warm.asInstanceOf[Simplified], "traced Simplify replay")
        Check.simplified(lifted, ref, w.n, "traced Simplify replay")
      }
      done += 1
    }
    spark.sparkContext.removeSparkListener(collector)

    val primary = if (w.lift) "trace.spark" else "trace.serial"
    val wall = m.median(s"${primary}_wall_ms") / 1e3
    val base = m.median("fit_s")
    m.add("trace.wall_s", wall)
    m.add("trace.untraced_p50_s", base)
    m.add("trace.overhead_ratio", wall / base)
    m.add("trace.unattributed_ms", m.median(s"${primary}_unattributed_ms"))

    val dir = Paths.get(outDir, "traces")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${w.name}-seed${o.seed}.json")
    Files.write(file, tr.toJson.getBytes(StandardCharsets.UTF_8))
    log(s"spans written to $file")
  }

  private def host(): mutable.LinkedHashMap[String, Any] = {
    val cpu = scala.util.Try {
      scala.io.Source.fromFile("/proc/cpuinfo").getLines().find(_.startsWith("model name"))
        .map(_.split(":", 2)(1).trim).getOrElse("unknown")
    }.getOrElse("unknown")
    val rt = ManagementFactory.getRuntimeMXBean
    mutable.LinkedHashMap(
      "nproc" -> nproc,
      "cpu" -> cpu,
      "jvm" -> s"${rt.getVmName} ${rt.getVmVersion}",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "jvm_args" -> rt.getInputArguments.toArray.map(_.toString).filter(_.startsWith("-X")).mkString(" "),
      "spark" -> spark.version,
      "spark_master" -> spark.sparkContext.master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "sources_sha256" -> sys.props.getOrElse("perfbench.sources", "unknown"),
      "workload" -> w.name,
      "dataset" -> s"${w.dataset} n=${w.n} k=${w.k} maxIters=${w.maxIters} f=${w.leafCapacity}",
      "seed" -> o.seed,
      "seconds" -> o.seconds,
      "trace" -> (if (o.trace) 1 else 0),
      "smoke" -> o.smoke,
    )
  }

  private def report(): String = {
    log(s"host ${Json(host())}")
    for (name <- m.names) {
      val xs = m(name)
      val (q1, q2, q3) = Stats.quartiles(xs)
      log(f"$name%-34s n=${xs.length}%-3d p25=$q1%.6g p50=$q2%.6g p75=$q3%.6g")
    }
    val fits = m("fit_s")
    val (tail, pct) = Stats.tail(fits)
    log(f"fit_s.tail is p$pct of ${fits.length} samples = $tail%.6g s")
    log(s"attempted=$attempted failed=$failed")

    val metrics: Seq[(String, Double, String)] =
      if (!o.trace) Seq(
        ("setup_s", m.median("setup_s"), "s"),
        ("fit_s.p50", m.median("fit_s"), "s"),
        ("fit_s.tail", tail, "s"),
        ("alloc_mb", m.median("alloc_mb"), "MB"),
        ("distances", m.median("distances"), "count"),
      )
      else Metrics.perLayer.map { case (name, unit) => (name, m.median(name), unit) }
    Json(mutable.LinkedHashMap(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> mutable.LinkedHashMap(metrics.map { case (n, v, u) =>
        n -> mutable.LinkedHashMap("value" -> v, "unit" -> u)
      }: _*),
    ))
  }

  def close(): Unit = if (spark != null) spark.stop()
}

object Metrics {

  /** Every per-layer metric of a traced run, with its unit. */
  val perLayer: Seq[(String, String)] = Seq(
    "spatial.generate_s" -> "s",
    "core.tree_build_ms" -> "ms",
    "core.tree_nodes" -> "count",
    "core.state_init_ms" -> "ms",
    "core.index_retained_mb" -> "MB",
    "core.centroid_index_ms" -> "ms",
    "core.inter_bounds_ms" -> "ms",
    "core.inter_bounds_distances" -> "count",
    "core.step_ms.first" -> "ms",
    "core.step_ms.rest" -> "ms",
    "core.step_distances" -> "count",
    "core.step_alloc_mb" -> "MB",
    "core.step_ns_per_distance" -> "ns",
    "core.pruned_ratio" -> "ratio",
    "core.point_iterations" -> "count",
    "core.refine_ms" -> "ms",
    "core.materialize_ms" -> "ms",
    "core.iterations" -> "count",
    "estimator.mem_est_bytes" -> "bytes",
    "estimator.meter_bytes" -> "bytes",
    "estimator.mem_est_ratio.retained" -> "ratio",
    "estimator.mem_est_ratio.meter" -> "ratio",
    "estimator.leaf_capacity_ms" -> "ms",
    "spark.fit_s" -> "s",
    "spark.assignments_s" -> "s",
    "spark.weights_s" -> "s",
    "spark.output_ms" -> "ms",
    "spark.cleanup_ms" -> "ms",
    "spark.driver_ms" -> "ms",
    "spark.fit_jobs" -> "count",
    "spark.jobs" -> "count",
    "spark.stages" -> "count",
    "spark.tasks" -> "count",
    "spark.task_run_ms" -> "ms",
    "spark.task_deser_ms" -> "ms",
    "spark.task_gc_ms" -> "ms",
    "spark.result_bytes" -> "bytes",
    "spark.fit_result_bytes" -> "bytes",
    "spark.shuffle_bytes" -> "bytes",
    "spark.cache_builds" -> "count",
    "spark.partition_distances" -> "count",
    "spark.pruned_vectors" -> "count",
    "spark.alloc_mb" -> "MB",
    "trace.wall_s" -> "s",
    "trace.untraced_p50_s" -> "s",
    "trace.overhead_ratio" -> "ratio",
    "trace.unattributed_ms" -> "ms",
    "check.verify_s" -> "s",
    "check.per_run_ms" -> "ms",
  )
}

object Main {
  def main(args: Array[String]): Unit = {
    var bench: Bench = null
    val code =
      try {
        val o = Opts.parse(args)
        bench = new Bench(Workload(o.workload, o.smoke), o)
        val line = bench.run()
        bench.close()
        println(line)
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          if (bench != null) scala.util.Try(bench.close())
          1
      }
    System.out.flush()
    sys.exit(code)
  }
}
