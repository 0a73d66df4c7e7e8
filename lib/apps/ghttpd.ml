let overflow_to_url = 200
let attack_tail = "/cgi-bin/../../../../bin/sh"

let source =
  {|
/* A GHTTPD-shaped server.  serveconnection keeps the request in a
   big stack buffer; handle_request copies the request line into a
   200-byte log buffer with no bound (the bid-5960 Log() bug).  The
   url pointer local sits right above that buffer, so a 204-byte
   request line replaces it without touching the saved frame pointer
   or return address. */

int contains_dotdot(char *u) {
  return strstr(u, "/..") != 0;
}

char *parse_url(char *req) {
  if (strncmp(req, "GET ", 4) != 0) return 0;
  char *url = req + 4;
  char *end = strchr(url, '\n');
  if (end) *end = 0;              /* URL is the rest of the request line */
  return url;
}

/* copy one request line for the access log — unbounded, the bug */
void copy_log_line(char *dst, char *src) {
  int i = 0;
  while (src[i] && src[i] != '\n') {
    dst[i] = src[i];
    i++;
  }
  dst[i] = 0;
}

void serve_url(int s, char *url) {
  if (url[0] != '/') {              /* first dereference of url */
    fdprintf(s, "HTTP/1.0 400 Bad Request\r\n\r\n");
    return;
  }
  if (strncmp(url, "/cgi-bin/", 9) == 0) {
    char full[256];
    sprintf(full, "/usr/local/ghttpd%s", url);
    exec(full);
    fdprintf(s, "HTTP/1.0 200 OK\r\n\r\ncgi executed\r\n");
    return;
  }
  fdprintf(s, "HTTP/1.0 200 OK\r\n\r\nstatic content\r\n");
}

void handle_request(int s, char *request) {
  char *url;
  char logline[200];
  url = parse_url(request);
  if (!url) {
    fdprintf(s, "HTTP/1.0 400 Bad Request\r\n\r\n");
    return;
  }
  /* security policy: no escaping the document root */
  if (contains_dotdot(url)) {
    fdprintf(s, "HTTP/1.0 403 Forbidden\r\n\r\n");
    return;
  }
  copy_log_line(logline, request);   /* OVERFLOW: may rewrite url */
  serve_url(s, url);
}

int main(void) {
  char request[4096];
  int ls = socket();
  int c;
  while ((c = accept(ls)) >= 0) {
    int n = recv(c, request, 4095, 0);
    if (n > 0) {
      request[n] = 0;
      handle_request(c, request);
    }
    close(c);
  }
  return 0;
}
|}
