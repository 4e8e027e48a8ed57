package repro.spark

import org.apache.spark.TaskContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core._

import scala.collection.concurrent.TrieMap

/** Executor-local cache of per-partition Ball-trees and assignment state.
  *
  * The tree over a partition's spatial vectors is built once (the paper
  * builds the spatial-vector index once per task) and reused across the
  * driver-coordinated iterations; the assignment markers persist so the
  * inter-bound / batch pruning carries over between iterations exactly as
  * in the serial algorithm. Keys are (runId, partitionId); entries are
  * dropped explicitly when a run finishes. Works wherever executor JVMs
  * are stable across stages (local mode and standalone executors). Only
  * the first assignment job reads a partition's rows; later jobs find the
  * entry and reuse the shuffle without reading them.
  */
object PartitionIndexCache {
  final class Entry(
      val ids: Array[Long],
      val state: TreeAssignmentState,
      val counter: DistanceCounter,
  )

  private val cache = TrieMap.empty[(String, Int), Entry]

  def getOrBuild(runId: String, partition: Int, build: () => Entry): Entry =
    cache.getOrElseUpdate((runId, partition), build())

  def get(runId: String, partition: Int): Option[Entry] = cache.get((runId, partition))

  def drop(runId: String): Unit =
    cache.keys.filter(_._1 == runId).foreach(cache.remove)

  def size: Int = cache.size
}

/** Dask-means lifted onto Spark per the repro plan: the memory-tunable
  * index and batch assignment run as a per-partition operator, feeding
  * MLlib-KMeans-style (Lloyd) iterations. Per assignment phase the driver
  * computes the inter bounds and runs one job whose task function, a
  * `Step`, carries the centroids and inter bounds; each task runs
  * [[repro.core.DaskAssign.step]] over its partition's cached tree, and
  * the one partial each non-empty partition returns is reduced into the
  * next centroids.
  */
object DistributedDaskMeans {

  /** `counts`: cluster sizes at the last assignment phase; `numPartitions`:
    * the partition count the run's cache is keyed by.
    */
  final case class FitResult(
      centroids: Array[Array[Double]],
      iterations: Int,
      runId: String,
      batchPrunedVectors: Long,
      counts: Array[Long],
      numPartitions: Int,
  )

  /** Deterministic initial centroids: the k rows with the smallest hashed
    * ids (a seeded pseudo-random sample).
    */
  def initialCentroids(df: DataFrame, k: Int, seed: Long): Array[Array[Double]] =
    df.orderBy(xxhash64(col("id"), lit(seed)))
      .limit(k)
      .select("features")
      .collect()
      .map(_.getSeq[Double](0).toArray)

  /** Fit k-means over `df` (columns `id`, `features`). The input is read
    * twice without `init` (once for the initial centroids, once by the
    * shuffle that partitions it by id), otherwise once; later iterations
    * reuse the shuffle, so the caller should persist `df` only if it is
    * expensive to recompute. Each assignment phase is one job, with the
    * centroids and inter bounds in its task rather than in a broadcast
    * variable. Invalid input fails with the messages of
    * [[repro.core.KMeansAlgo.run]]. If the fit throws, the run's partition
    * cache is dropped.
    */
  def fit(
      df: DataFrame,
      k: Int,
      maxIters: Int,
      leafCapacity: Int = 30,
      numPartitions: Int = 0,
      seed: Long = 42L,
      init: Option[Array[Array[Double]]] = None,
  ): FitResult = {
    require(maxIters >= 1, "need at least one iteration")
    require(k >= 1, s"need 1 <= k <= n, got k=$k")
    init.foreach { cs =>
      require(cs.length == k, s"need k=$k initial centroids, got ${cs.length}")
      require(cs.forall(_.forall(java.lang.Double.isFinite)), "initial centroids have a NaN or infinite coordinate")
    }
    val sc = df.sparkSession.sparkContext
    val parts = if (numPartitions > 0) numPartitions else sc.defaultParallelism
    val start = init.getOrElse(initialCentroids(df, k, seed))
    require(start.length == k, s"need 1 <= k <= n, got k=$k n=${start.length}")
    import df.sparkSession.implicits._
    val rows = df.select("id", "features").repartition(parts, col("id")).as[(Long, Array[Double])].rdd

    val runId = java.util.UUID.randomUUID().toString
    val d = start(0).length
    val driverCounter = new DistanceCounter
    var counts: Array[Long] = null

    val run = new KMeansRun {
      private var cb = new Array[Double](k)
      private var sums: Array[Array[Double]] = null

      override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
        // Driver-side inter bounds over a centroid index (k is small).
        val index = if (k > 1) new CentroidIndex(centroids, leafCapacity, driverCounter) else null
        cb = DaskAssign.interBounds(centroids, index, first = it == 0, cb, drifts, driverCounter)
        val partials = sc.runJob(rows, new Step(runId, k, leafCapacity, centroids, cb)).filter(_ != null)

        // Partition order fixes the order each cluster's sum is added in.
        // A cluster a partition emptied is skipped: its sum may keep
        // rounding residue.
        sums = Array.fill(k)(new Array[Double](d))
        counts = new Array[Long](k)
        for (p <- partials; j <- 0 until k if p.counts(j) > 0) {
          counts(j) += p.counts(j)
          Vec.addInto(sums(j), p.sums(j))
        }
        if (it == 0) require(counts.sum >= k, s"need 1 <= k <= n, got k=$k n=${counts.sum}")
        partials.map(_.pruned).sum
      }

      override def refine(centroids: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
        KMeans.fromSums(sums, counts, centroids, drifts)
    }

    try {
      val out = KMeans.iterate(start, maxIters, run)
      FitResult(out.centroids, out.iterations, runId, out.pruned, counts, parts)
    } catch {
      case t: Throwable => PartitionIndexCache.drop(runId); throw t
    }
  }

  /** One partition's share of an assignment phase. */
  private final case class Partial(pruned: Long, counts: Array[Long], sums: Array[Array[Double]])

  /** One partition's assignment phase against `centroids`: the partition's
    * cached tree, built from its rows on first use, assigned by
    * [[repro.core.DaskAssign.step]]. An empty partition returns null. The
    * centroids and inter bounds travel in the serialized task.
    */
  private final class Step(
      runId: String,
      k: Int,
      leafCapacity: Int,
      centroids: Array[Array[Double]],
      cb: Array[Double],
  ) extends ((TaskContext, Iterator[(Long, Array[Double])]) => Partial) with Serializable {
    def apply(ctx: TaskContext, rows: Iterator[(Long, Array[Double])]): Partial = {
      val entry = PartitionIndexCache.getOrBuild(runId, ctx.partitionId(), () => {
        val (ids, data) = rows.toArray.unzip
        require(data.forall(_.forall(java.lang.Double.isFinite)), "data has a NaN or infinite coordinate")
        val state = if (data.isEmpty) null else new TreeAssignmentState(data, BallTree.build(data, leafCapacity), k)
        new PartitionIndexCache.Entry(ids, state, new DistanceCounter)
      })
      if (entry.state == null) null
      else {
        val index = if (k > 1) new CentroidIndex(centroids, leafCapacity, entry.counter) else null
        val pruned = DaskAssign.step(entry.state, centroids, cb, index, entry.counter)
        Partial(pruned, entry.state.counts, entry.state.sums)
      }
    }
  }

  /** Final per-point assignments of a finished run as a DataFrame
    * `(id, cluster)`, partitioned as the run was; requires the run's cached
    * partition state (call before [[cleanup]]). Falls back to a
    * nearest-centroid pass for partitions whose cache entry is gone.
    */
  def assignments(df: DataFrame, fitted: FitResult, leafCapacity: Int = 30): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select("id", "features")
      .repartition(fitted.numPartitions, col("id"))
      .mapPartitions { rows =>
        val pid = TaskContext.getPartitionId()
        PartitionIndexCache.get(fitted.runId, pid) match {
          case Some(entry) if entry.state != null =>
            val a = entry.state.materialize()
            val byId = new java.util.HashMap[Long, Int](entry.ids.length * 2)
            entry.ids.indices.foreach(i => byId.put(entry.ids(i), i))
            rows.map { r =>
              val id = r.getLong(0)
              val i = byId.getOrDefault(id, -1)
              if (i >= 0) (id, a(i))
              else (id, Vec.nearest(r.getSeq[Double](1).toArray, fitted.centroids))
            }
          case _ =>
            rows.map(r => (r.getLong(0), Vec.nearest(r.getSeq[Double](1).toArray, fitted.centroids)))
        }
      }
      .toDF("id", "cluster")
  }

  def cleanup(fitted: FitResult): Unit = PartitionIndexCache.drop(fitted.runId)

  /** Sum of squared errors of a fitted model over the frame. */
  def sse(df: DataFrame, centroids: Array[Array[Double]]): Double = {
    import df.sparkSession.implicits._
    df.select("features").as[Array[Double]]
      .map(p => Vec.dist2(p, centroids(Vec.nearest(p, centroids))))
      .reduce(_ + _)
  }
}
