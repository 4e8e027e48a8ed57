package perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.{DataFrame, Row}

import repro.core._
import repro.estimator.{MemoryEstimator, MemoryMeter}
import repro.spark.{DistributedDaskMeans, PartitionIndexCache}

/** The outcome of one k-means run, whichever way it was made. */
final case class Outcome(
    centroids: Array[Array[Double]],
    assignments: Array[Int],
    iterations: Int,
    distances: Long,
    pruned: Long,
)

object Outcome {
  def of(r: KMeansResult): Outcome =
    Outcome(r.centroids, r.assignments, r.iterations, r.distanceComputations, r.batchPrunedVectors)
}

/** Spark `Simplify` output: representatives and their weights, by cluster. */
final case class Simplified(centroids: Array[Array[Double]], weights: Array[Long])

object Simplified {
  def of(rows: Array[Row]): Simplified = {
    val byCluster = rows.sortBy(_.getInt(0))
    require(byCluster.map(_.getInt(0)).sameElements(byCluster.indices), "clusters are not 0 until k")
    Simplified(byCluster.map(_.getSeq[Double](1).toArray), byCluster.map(_.getLong(2)))
  }
}

/** Heap allocation counters from the JVM. */
object Alloc {
  private val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes the calling thread has allocated so far. */
  def thread(): Long = bean.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Bytes all live threads have allocated so far. */
  def allThreads(): Long = bean.getThreadAllocatedBytes(bean.getAllThreadIds).filter(_ > 0).sum

  /** Used heap after a full collection. */
  def usedAfterGc(): Long = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }
}

/** Traced replays of the program's entry points. Each calls the same public
  * functions in the same order as the entry point it replays, with spans and
  * counts around every call.
  */
object Layers {

  /** `DaskMeans.run` (default settings), call by call. Per-layer numbers go
    * into `m`; spans into `tr`.
    */
  def serial(
      data: Array[Array[Double]],
      k: Int,
      maxIters: Int,
      init: Array[Array[Double]],
      leafCapacity: Int,
      tr: Trace,
      m: Metrics,
  ): Outcome = {
    val counter = new DistanceCounter
    var pruned = 0L
    var it = 0
    var interBoundDist = 0L; var stepDist = 0L; var stepAlloc = 0L
    var stepFirstNs = 0L; var stepRestNs = 0L
    var assignments: Array[Int] = null
    var centroids = init.map(_.clone())
    var tree: BallTree.Built = null

    tr.span("serial.run") {
      tree = tr.span("core.tree_build") { BallTree.build(data, leafCapacity) }
      val state = tr.span("core.state_init") { new TreeAssignmentState(data, tree, k) }
      var cb = new Array[Double](k)
      val drifts = new Array[Double](k)
      var converged = false
      while (it < maxIters && !converged) {
        val index = tr.span("core.centroid_index") {
          if (k > 1) new CentroidIndex(centroids, leafCapacity, counter) else null
        }
        val c0 = counter.count
        cb = tr.span("core.inter_bounds") {
          DaskAssign.interBounds(centroids, index, first = it == 0, cb, drifts, counter)
        }
        interBoundDist += counter.count - c0
        val c1 = counter.count
        val a1 = Alloc.thread()
        pruned += tr.span("core.step") { DaskAssign.step(state, centroids, cb, index, counter) }
        stepAlloc += Alloc.thread() - a1
        stepDist += counter.count - c1
        val stepNs = tr.last("core.step").endNs - tr.last("core.step").startNs
        if (it == 0) stepFirstNs = stepNs else stepRestNs += stepNs
        centroids = tr.span("core.refine") { state.refine(centroids, drifts) }
        it += 1
        converged = KMeans.maxDrift(drifts) <= KMeans.Eps
      }
      assignments = tr.span("core.materialize") { state.materialize() }
    }

    val run = tr.last("serial.run")
    val n = data.length.toLong
    m.add("core.tree_build_ms", tr.childMs(run, "core.tree_build"))
    m.add("core.tree_nodes", tree.nodeCount.toDouble)
    m.add("core.state_init_ms", tr.childMs(run, "core.state_init"))
    m.add("core.centroid_index_ms", tr.childMs(run, "core.centroid_index"))
    m.add("core.inter_bounds_ms", tr.childMs(run, "core.inter_bounds"))
    m.add("core.inter_bounds_distances", interBoundDist.toDouble)
    m.add("core.step_ms.first", stepFirstNs / 1e6)
    m.add("core.step_ms.rest", stepRestNs / 1e6)
    m.add("core.step_distances", stepDist.toDouble)
    m.add("core.step_alloc_mb", stepAlloc / 1e6)
    m.add("core.step_ns_per_distance", (stepFirstNs + stepRestNs).toDouble / math.max(1L, stepDist))
    m.add("core.point_iterations", (n * it).toDouble)
    m.add("core.pruned_ratio", pruned.toDouble / (n * it))
    m.add("core.refine_ms", tr.childMs(run, "core.refine"))
    m.add("core.materialize_ms", tr.childMs(run, "core.materialize"))
    m.add("core.iterations", it.toDouble)
    m.add("trace.serial_wall_ms", run.ms)
    m.add("trace.serial_unattributed_ms", tr.selfMs(run))
    Outcome(centroids, assignments, it, counter.count, pruned)
  }

  /** Memory of the index against the paper's estimate (Eq. 11) and the
    * repository's meter, and the time of the Eq. 12 leaf-capacity search.
    */
  def memory(data: Array[Array[Double]], k: Int, init: Array[Array[Double]], leafCapacity: Int, m: Metrics): Unit = {
    val n = data.length.toLong; val d = data(0).length
    val estimate = MemoryEstimator.daskMeansExtraBytes(n, k.toLong, d.toLong, leafCapacity.toLong)

    var held: (BallTree.Built, TreeAssignmentState, CentroidIndex) = null
    val released = Alloc.usedAfterGc()
    held = {
      val tree = BallTree.build(data, leafCapacity)
      (tree, new TreeAssignmentState(data, tree, k), new CentroidIndex(init, leafCapacity, new DistanceCounter))
    }
    val reachable = Alloc.usedAfterGc()
    val meter = MemoryMeter.daskMeansActualBytes(held._1, held._3.built, d, n)
    java.lang.ref.Reference.reachabilityFence(held)
    held = null
    val retained = math.max(1L, reachable - released)

    val budget = MemoryEstimator.daskMeansExtraFloats(n, k.toLong, d.toLong, leafCapacity.toLong)
    val times = (1 to 5).map { _ =>
      val t0 = System.nanoTime()
      val f = MemoryEstimator.leafCapacityFor(n, k.toLong, d.toLong, budget)
      val ms = (System.nanoTime() - t0) / 1e6
      Check.require(f.exists(_ <= leafCapacity),
        s"Eq. 12 found no leaf capacity <= $leafCapacity for the Eq. 11 footprint at $leafCapacity: $f")
      ms
    }

    m.add("core.index_retained_mb", retained / 1e6)
    m.add("estimator.mem_est_bytes", estimate.toDouble)
    m.add("estimator.meter_bytes", meter.toDouble)
    m.add("estimator.mem_est_ratio.retained", estimate.toDouble / retained)
    m.add("estimator.mem_est_ratio.meter", estimate.toDouble / meter)
    m.add("estimator.leaf_capacity_ms", Stats.median(times))
  }

  /** `Simplify.simplify(df, k, maxIters, leafCapacity, seed)` followed by a
    * collect of its output, call by call; `init` replaces the seeded
    * initial centroids when given.
    */
  def simplify(
      df: DataFrame,
      k: Int,
      maxIters: Int,
      leafCapacity: Int,
      seed: Long,
      init: Option[Array[Array[Double]]],
      collector: Option[SparkCollector],
      tr: Trace,
      m: Metrics,
  ): (Simplified, Long) = {
    val spark = df.sparkSession
    val sc = spark.sparkContext
    def phase[T](name: String)(body: => T): T = tr.span(name)(SparkCollector.withPhase(sc, name)(body))
    var distances = 0L
    var builds = 0
    var pruned = 0L
    collector.foreach { c => c.drain(sc); c.reset() }
    val a0 = Alloc.allThreads()

    val rows = tr.span("spark.simplify") {
      val fitted = phase("spark.fit") {
        DistributedDaskMeans.fit(df, k, maxIters, leafCapacity, seed = seed, init = init)
      }
      pruned = fitted.batchPrunedVectors
      val entries = (0 until sc.defaultParallelism).flatMap(PartitionIndexCache.get(fitted.runId, _))
      builds = entries.length
      distances = entries.map(_.counter.count).sum
      val out =
        try {
          val assigned = phase("spark.assignments") { DistributedDaskMeans.assignments(df, fitted, leafCapacity) }
          import spark.implicits._
          val weights = phase("spark.weights") {
            assigned.groupBy("cluster").count().as[(Int, Long)].collect().toMap
          }
          phase("spark.output") {
            val rows = fitted.centroids.zipWithIndex.map { case (c, j) => (j, c.toSeq, weights.getOrElse(j, 0L)) }
            spark.createDataFrame(rows.toSeq).toDF("cluster", "features", "weight")
          }
        } finally phase("spark.cleanup") { DistributedDaskMeans.cleanup(fitted) }
      phase("spark.collect") { out.collect() }
    }
    val allocated = Alloc.allThreads() - a0

    val run = tr.last("spark.simplify")
    collector.foreach { c =>
      c.drain(sc)
      val fit = c.totalsOf("spark.fit")
      val all = Seq("spark.fit", "spark.assignments", "spark.weights", "spark.output", "spark.cleanup", "spark.collect")
        .map(c.totalsOf).reduce(_ + _)
      m.add("spark.driver_ms", tr.childMs(run, "spark.fit") - fit.jobMs)
      m.add("spark.fit_jobs", fit.jobs.toDouble)
      m.add("spark.jobs", all.jobs.toDouble)
      m.add("spark.stages", all.stages.toDouble)
      m.add("spark.tasks", all.tasks.toDouble)
      m.add("spark.task_run_ms", all.runMs.toDouble)
      m.add("spark.task_deser_ms", all.deserMs.toDouble)
      m.add("spark.task_gc_ms", all.gcMs.toDouble)
      m.add("spark.result_bytes", all.resultBytes.toDouble)
      m.add("spark.fit_result_bytes", fit.resultBytes.toDouble)
      m.add("spark.shuffle_bytes", all.shuffleBytes.toDouble)
    }
    m.add("spark.fit_s", tr.childMs(run, "spark.fit") / 1e3)
    m.add("spark.assignments_s", tr.childMs(run, "spark.assignments") / 1e3)
    m.add("spark.weights_s", tr.childMs(run, "spark.weights") / 1e3)
    m.add("spark.output_ms", tr.childMs(run, "spark.output") + tr.childMs(run, "spark.collect"))
    m.add("spark.cleanup_ms", tr.childMs(run, "spark.cleanup"))
    m.add("spark.cache_builds", builds.toDouble)
    m.add("spark.partition_distances", distances.toDouble)
    m.add("spark.pruned_vectors", pruned.toDouble)
    m.add("spark.alloc_mb", allocated / 1e6)
    m.add("trace.spark_wall_ms", run.ms)
    m.add("trace.spark_unattributed_ms", tr.selfMs(run))
    (Simplified.of(rows), distances)
  }
}
