type stats = {
  hits : int;
  misses : int;
}
